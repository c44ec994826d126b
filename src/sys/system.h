/**
 * @file
 * Polymorphic interface over the evaluated system design points.
 *
 * Every timing-mode system model (paper Section VI: hybrid CPU-GPU,
 * static cache, straw-man, ScratchPipe, 8-GPU) implements this
 * interface so drivers, benches and the ExperimentRunner can hold a
 * `std::unique_ptr<System>` and treat all design points uniformly.
 * Instances are built from a SystemSpec through sys::Registry; direct
 * construction of the concrete classes remains available for tests.
 * The decisions several models share live here too: the run check,
 * the cached-row rule, the GPU cache tier's cost and the Fig. 4
 * result assembly.
 */

#ifndef SP_SYS_SYSTEM_H
#define SP_SYS_SYSTEM_H

#include <cstdint>
#include <string>

#include "data/dataset.h"
#include "emb/traffic.h"
#include "sim/latency_model.h"
#include "sys/batch_stats.h"
#include "sys/run_result.h"
#include "sys/system_config.h"

namespace sp::sys
{

/** Abstract system model over one model geometry and one testbed. */
class System
{
  public:
    virtual ~System() = default;

    /**
     * Simulate `iterations` measured batches of `dataset` after
     * `warmup` steady-state batches (timing only).
     * @param stats Shared per-batch unique-ID counts.
     */
    virtual RunResult simulate(const data::TraceDataset &dataset,
                               const BatchStats &stats,
                               uint64_t iterations,
                               uint64_t warmup = 0) const = 0;

    /** Display name, identical to RunResult::system_name. */
    virtual std::string name() const = 0;

  protected:
    /** fatal() unless `model` is valid. */
    System(const ModelConfig &model, const sim::HardwareConfig &hardware);

    ModelConfig model_;
    sim::LatencyModel latency_;
};

/**
 * fatal() unless a run measures at least one iteration and both
 * `dataset` and `stats` cover its `warmup + iterations` batches.
 */
void checkRun(const data::TraceDataset &dataset, const BatchStats &stats,
              uint64_t iterations, uint64_t warmup);

/**
 * Rows per table a GPU cache of `fraction` holds. fatal() unless
 * `fraction` lies in (0, 1] (NaN is rejected) and caches at least one
 * row.
 */
uint64_t cachedRows(const ModelConfig &model, double fraction);

/** `hits / ids`, or 0 when there were no lookups. */
double hitRate(uint64_t hits, uint64_t ids);

/** Bytes one GPU hash-table probe reads per ID ([Query], [Plan]). */
inline constexpr double kProbeBytesPerId = 16.0;

/** What a GPU cache over host-resident tables costs one batch before
 *  the system's own backward or refresh traffic. */
struct CacheTierCost
{
    /** [Query]: IDs up, one hash-table probe each, missed IDs back. */
    double query = 0.0;
    /** CPU seconds to gather the missed rows on the host. */
    double host_gather = 0.0;
    /** Missed rows + each sample's dense inputs up. */
    double miss_upload = 0.0;
    /** GPU gather of the hit rows + every table's per-sample reduce. */
    emb::Traffic gpu;
};

/** The static cache's and the serving tier's shared cost of `hits +
 *  misses` lookups by `samples` samples. */
CacheTierCost cacheTierCost(const sim::LatencyModel &latency,
                            const ModelConfig &model, uint64_t hits,
                            uint64_t misses, uint64_t samples);

/**
 * Running sums of the three-stage Fig. 4 iteration the hybrid and
 * static-cache baselines share: the CPU's embedding forward and
 * backward, and everything on the GPU side.
 */
struct Fig4Totals
{
    double cpu_forward = 0.0;
    double cpu_backward = 0.0;
    double gpu = 0.0;
    double cpu_busy = 0.0;

    /** Add one measured batch's stage times. */
    void add(double forward, double backward, double gpu_side);

    /** The per-iteration result over `iterations` measured batches. */
    RunResult result(const std::string &name, uint64_t iterations) const;
};

} // namespace sp::sys

#endif // SP_SYS_SYSTEM_H
