/**
 * @file
 * The ScratchPipe system (paper Section IV) and its straw-man variant.
 *
 * Six stages -- [Load, Plan, Collect, Exchange, Insert, Train] -- run
 * the dynamic always-hit GPU scratchpad. The timing model executes the
 * real controller (row index, Hold masks, Algorithm 1) over the trace
 * to obtain the exact per-batch fill/evict counts, then charges each
 * stage's traffic, the modeled GPU Hit-Map's included, to the
 * hardware resources:
 *
 *   Load      host reads the next mini-batch's sparse IDs;
 *   Plan      IDs H2D + Hit-Map query + victim planning (GPU);
 *   Collect   CPU gathers missed rows; GPU reads victim rows;
 *   Exchange  PCIe H2D fills || D2H write-backs (full duplex);
 *   Insert    GPU fills Storage; CPU applies write-backs;
 *   Train     embedding fwd/bwd at HBM speed + MLP training.
 *
 * Pipelined mode retires one iteration per steady-state cycle
 * (sim::solvePipeline); the straw-man executes the same stages
 * sequentially (paper Section IV-B) with windows shrunk to the current
 * batch only. ScratchPipeOptions::gpus extends the pipelined design to
 * table-wise model-parallel multi-GPU training (Section VI-G).
 */

#ifndef SP_SYS_SCRATCHPIPE_SYS_H
#define SP_SYS_SCRATCHPIPE_SYS_H

#include <vector>

#include "cache/probe_kernel.h"
#include "cache/replacement.h"
#include "core/controller.h"
#include "sys/system.h"

namespace sp::sys
{

/** Tunables of the ScratchPipe runtime. */
struct ScratchPipeOptions
{
    /** Nominal scratchpad capacity as a fraction of each table. */
    double cache_fraction = 0.10;
    /** Pipelined ScratchPipe (true) or sequential straw-man (false). */
    bool pipelined = true;
    /** Victim-selection policy (paper default LRU). */
    cache::PolicyKind policy = cache::PolicyKind::Lru;
    /** Past window width (paper: 3). Ignored by the straw-man. */
    uint32_t past_window = 3;
    /** Future window width (paper: 2). Ignored by the straw-man. */
    uint32_t future_window = 2;
    /**
     * Grow the scratchpad to the §VI-D worst-case window working set
     * when the nominal fraction falls below it (required for the
     * always-hit guarantee on adversarial traces).
     */
    bool enforce_capacity_bound = true;
    /**
     * Begin measurement from the LRU steady state (scratchpad
     * pre-filled with the hottest rows) instead of a cold cache; the
     * paper reports steady-state iteration latencies.
     */
    bool warm_start = true;
    /**
     * Unused: each table streams through every batch on its own pool
     * task, so there is no batch pipeline left to overlap. No spec
     * key sets it; it stays only because the perfbench driver reads
     * it, and goes with ROADMAP item 1.
     */
    bool overlap_planning = true;
    /** Unused, like overlap_planning: [Plan] has no mark-pass shards
     *  or probe kernel left to pick. No spec key sets them; they stay
     *  only because the perfbench driver reads them. */
    uint32_t plan_shards = 1;
    cache::ProbeMode probe = cache::ProbeMode::Auto;
    /**
     * GPUs the tables are split across (paper Section VI-G; pipelined
     * only). Table t lives on GPU t % gpus and keeps its own cache
     * manager, so table-wise parallelism adds no inter-GPU hazard;
     * only the resource charging changes:
     *  - CPU DRAM serves every GPU's [Collect]/[Insert] traffic
     *    (shared);
     *  - each GPU has its own HBM, PCIe lanes and SMs, so the busiest
     *    GPU binds the GPU-side stages, and the dense inputs and the
     *    data-parallel MLPs split 1/gpus per GPU;
     *  - [Train] adds the all-to-all of reduced embeddings and the
     *    MLP gradient all-reduce over NVLink, and carries the
     *    distributed framework overhead of the plain multi-GPU system.
     * The paper predicts the extension is *viable but not
     * cost-effective* -- the DNNs were never the bottleneck, so the
     * extra GPUs mostly idle; this model makes that quantitative. Not
     * a spec key.
     */
    uint32_t gpus = 1;
};

/**
 * The scratchpad sizing rule shared by the timing model and the
 * functional trainer: `cache_fraction` (which must lie in (0, 1]; NaN
 * is rejected) of each table's rows, at least one slot, grown to the
 * §VI-D worst-case window working set under `enforce_capacity_bound`,
 * and never more than the table has rows. The straw-man
 * (`pipelined == false`) plans with both windows at zero. A count
 * that does not fit the 32-bit slot space (2^32 - 1 and up is the row
 * index's not-found sentinel) is a FatalError.
 */
uint32_t scratchpadSlots(const ModelConfig &model,
                         const ScratchPipeOptions &options);

/**
 * Table `table`'s controller: scratchpadSlots() slots, seeded
 * 0x5eed + table. `gpus` is the caller's.
 */
core::ScratchPipeController
makeScratchpadController(const ModelConfig &model,
                         const ScratchPipeOptions &options,
                         cache::SlotArray::Backing backing, size_t table);

/** makeScratchpadController() for every table of `model`, for callers
 *  that keep all of them alive across batches. */
std::vector<core::ScratchPipeController>
makeScratchpadControllers(const ModelConfig &model,
                          const ScratchPipeOptions &options,
                          cache::SlotArray::Backing backing);

/** Timing model of ScratchPipe / straw-man. */
class ScratchPipeSystem : public System
{
  public:
    ScratchPipeSystem(const ModelConfig &model,
                      const sim::HardwareConfig &hardware,
                      const ScratchPipeOptions &options);

    RunResult simulate(const data::TraceDataset &dataset,
                       const BatchStats &stats, uint64_t iterations,
                       uint64_t warmup = 0) const override;

    std::string name() const override
    {
        if (options_.gpus > 1)
            return "ScratchPipe multi-GPU";
        return options_.pipelined ? "ScratchPipe" : "Straw-man";
    }

    /** Provisioned Storage slots per table (after the §VI-D bound). */
    uint32_t slotsPerTable() const { return slots_per_table_; }

  private:
    ScratchPipeOptions options_;
    uint32_t slots_per_table_ = 0;
};

} // namespace sp::sys

#endif // SP_SYS_SCRATCHPIPE_SYS_H
