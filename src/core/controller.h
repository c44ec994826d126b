/**
 * @file
 * The ScratchPipe cache controller (one instance per embedding table).
 *
 * Implements Algorithm 1 of the paper: on every [Plan] invocation the
 * controller advances the Hold masks, pre-marks the future window,
 * queries the Hit-Map for the current mini-batch's sparse IDs and
 * assigns hold-mask-eligible victim slots to the misses. The returned
 * PlanResult is the complete data-movement schedule for the batch's
 * remaining pipeline stages:
 *
 *   [Collect]  read PlanResult::fills' rows from the CPU table and the
 *              evicted slots' current values from Storage;
 *   [Exchange] move both across PCIe;
 *   [Insert]   write fills into Storage, write evicted (dirty) rows
 *              back into the CPU table;
 *   [Train]    gather/scatter every ID of the batch in Storage --
 *              guaranteed to hit.
 *
 * The controller is a pure planner: it holds IDs, slots and hold
 * masks, and no floats. Whoever moves rows owns them. The functional
 * trainer keeps each slot-aligned row array (the Storage values, the
 * AdaGrad accumulators) in an emb::EmbeddingTable with one row per
 * slot, and the timing models charge Storage by formula. This split
 * keeps Algorithm 1 testable in isolation. Its Accessor resolves IDs
 * into any such table, and forEachResident() lists the resident rows
 * for a drain. The host answers Hit-Map queries from a
 * cache::RowIndex; the GPU Hit-Map itself is charged by formula
 * (metadataBytes()).
 *
 * plan() dispatches on the replacement policy once per call, so its
 * classify loop is compiled for that policy's concrete type: touch()
 * and the hold-mask eligibility check inline, with no indirect call
 * per ID. The mark passes and the classify loop prefetch the row
 * index kPrefetchDistance IDs ahead of each lookup.
 */

#ifndef SP_CORE_CONTROLLER_H
#define SP_CORE_CONTROLLER_H

#include <cstdint>
#include <cstddef>
#include <functional>
#include <span>
#include <vector>

#include "cache/probe_kernel.h"
#include "cache/replacement.h"
#include "cache/row_index.h"
#include "cache/slot_array.h"
#include "core/hold_mask.h"
#include "emb/embedding_table.h"

namespace sp::core
{

/** Controller construction parameters. */
struct ControllerConfig
{
    /** Storage slots in the GPU scratchpad for this table. */
    uint32_t num_slots = 0;
    /** Plans a current-batch mark survives (paper default 3). */
    uint32_t past_window = 3;
    /** Future batches pre-marked per plan (paper default 2). */
    uint32_t future_window = 2;
    /** Victim-selection policy (paper default LRU). */
    cache::PolicyKind policy = cache::PolicyKind::Lru;
    /** Seed for randomized policies. */
    uint64_t policy_seed = 1;
    /** Unused: [Plan] has no mark-pass shards or probe kernel left to
     *  pick, and the controller holds no Storage for `dim` and
     *  `backing` to shape. They stay only because the perfbench driver
     *  sets them, and go with ROADMAP item 1. */
    uint32_t plan_shards = 1;
    cache::ProbeMode probe = cache::ProbeMode::Auto;
    size_t dim = 0;
    cache::SlotArray::Backing backing = cache::SlotArray::Backing::Dense;
    /**
     * Start with a full scratchpad holding rows 0..num_slots-1 (the
     * hottest ranks of the synthetic samplers), slot 0 most recently
     * used -- the LRU steady state a long run converges to. Lets the
     * timing benches measure steady state without tens of fill-up
     * batches. Timing runs only: a trainer's Storage would hold no
     * values for the pre-resident rows, so the functional trainer
     * forces it off.
     */
    bool warm_start = false;
};

/** One scheduled Storage fill: CPU row -> scratchpad slot. */
struct FillOp
{
    uint64_t id;   //!< CPU-table row to bring in
    uint32_t slot; //!< destination Storage slot
};

/** One scheduled write-back: scratchpad slot -> CPU row. */
struct EvictOp
{
    uint64_t id;   //!< CPU-table row to write back (the old key)
    uint32_t slot; //!< source Storage slot (read at [Collect])
};

/** The data-movement schedule produced by one [Plan] invocation. */
struct PlanResult
{
    /** ID-level hit count (duplicates of a missed ID count as hits). */
    uint64_t hits = 0;
    /** ID-level miss count == fills.size(). */
    uint64_t misses = 0;
    /** Rows to gather from the CPU table into Storage. */
    std::vector<FillOp> fills;
    /** Dirty rows to write back to the CPU table (<= fills.size();
     *  smaller while vacant slots remain). */
    std::vector<EvictOp> evictions;

    double
    hitRate() const
    {
        const uint64_t total = hits + misses;
        return total == 0 ? 0.0
                          : static_cast<double>(hits) /
                                static_cast<double>(total);
    }
};

/** Lifetime statistics of one controller. */
struct ControllerStats
{
    uint64_t plans = 0;
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t fills = 0;
    uint64_t evictions = 0;
};

/** Per-table ScratchPipe cache controller (Algorithm 1). */
class ScratchPipeController
{
  public:
    explicit ScratchPipeController(const ControllerConfig &config);

    const ControllerConfig &config() const { return config_; }

    /**
     * Run the [Plan] stage for one mini-batch.
     *
     * @param current_ids The batch's sparse IDs for this table, trace
     *                    order.
     * @param future_ids  The next batches' ID spans, nearest first; at
     *                    most future_window entries are consulted
     *                    (fewer near the end of the trace).
     *
     * Returns a reference to per-controller scratch that is reused
     * (capacity retained, so the steady-state hot path allocates
     * nothing) and overwritten by the next plan() call; copy the
     * PlanResult to retain it across plans.
     *
     * fatal()s when no hold-mask-eligible victim exists -- the
     * capacity-bound violation of Section VI-D.
     */
    const PlanResult &
    plan(std::span<const uint64_t> current_ids,
         std::span<const std::span<const uint64_t>> future_ids);

    /** True iff `id` is resident in the scratchpad right now. */
    bool isResident(uint64_t id) const;

    /** Storage slot of a resident `id`; panics if absent. */
    uint32_t slotOf(uint64_t id) const;

    /** The key currently assigned to `slot` (kNoKey when vacant). */
    uint64_t keyOfSlot(uint32_t slot) const { return slot_key_[slot]; }

    /** Vacant-slot sentinel: all ones, which no table geometry can
     *  produce as a row ID. */
    static constexpr uint64_t kNoKey = 0xffffffffffffffffull;

    const HoldMask &holdMask() const { return holds_; }
    const ControllerStats &stats() const { return stats_; }

    /**
     * Row accessor resolving resident IDs to their rows of a
     * slot-aligned table (one row per slot): the Storage values, or
     * the per-row optimizer state beside them. The [Train] stage's
     * gather/scatter target. Panics on non-resident IDs -- i.e. if the
     * "always hits" guarantee were ever violated.
     */
    class Accessor : public emb::RowAccessor
    {
      public:
        /** `slots` must have one row per controller slot. */
        Accessor(const ScratchPipeController &controller,
                 emb::EmbeddingTable &slots);
        float *row(uint64_t id) override;
        const float *row(uint64_t id) const override;
        size_t dim() const override { return slots_.dim(); }

      private:
        const ScratchPipeController &controller_;
        emb::EmbeddingTable &slots_;
    };

    /**
     * Visit every resident (key, slot) pair: the end-of-training drain
     * copies each slot-aligned array's rows back to the CPU tables.
     */
    void forEachResident(
        const std::function<void(uint64_t, uint32_t)> &fn) const;

    /**
     * Minimum slots that guarantee plan() can never fail: every ID of
     * every batch in the window distinct (paper §VI-D worst case). A
     * count that does not fit the 32-bit slot space is a FatalError.
     */
    static uint32_t worstCaseSlots(uint32_t past_window,
                                   uint32_t future_window,
                                   size_t ids_per_batch);

    /** GPU bytes of controller metadata: the modeled Hit-Map
     *  (cache::modeledHitMapBytes(num_slots)), the hold masks and the
     *  slot keys. */
    size_t metadataBytes() const;

  private:
    /** IDs between a row-index prefetch and the lookup it serves:
     *  enough lookups to cover a cache miss, few enough that the
     *  prefetched lines are still cached when their lookup comes. */
    static constexpr size_t kPrefetchDistance = 16;

    /** Mark every resident ID of `ids`: markCurrent when
     *  `future_distance` is 0, markFuture(distance) otherwise. */
    void markPass(std::span<const uint64_t> ids, uint32_t future_distance);

    ControllerConfig config_;
    cache::RowIndex index_;
    HoldMask holds_;
    cache::Policy policy_;
    std::vector<uint64_t> slot_key_;
    ControllerStats stats_;
    // Reusable plan() scratch: cleared (capacity kept) every plan, so
    // the steady-state hot path performs no heap allocation.
    PlanResult plan_;
};

} // namespace sp::core

#endif // SP_CORE_CONTROLLER_H
