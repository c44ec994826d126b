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
 * The cost terms several models share live here too.
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

/** Abstract system model: simulate a workload, describe yourself. */
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

    /** One-line description (paper reference + role). */
    virtual std::string description() const = 0;
};

/** Bytes one GPU hash-table probe reads per ID ([Query], [Plan]). */
inline constexpr double kProbeBytesPerId = 16.0;

/** PCIe and GPU time of a GPU cache over host-resident tables. */
struct CacheTransferTimes
{
    /** [Query]: IDs up, one hash-table probe each, missed IDs back. */
    double query = 0.0;
    /** Missed rows + each sample's dense inputs up. */
    double miss_upload = 0.0;
};

/** The static cache's and the serving tier's transfer times for
 *  `ids` lookups by `samples` samples, `misses` of them missed. */
inline CacheTransferTimes
cacheTransferTimes(const sim::LatencyModel &latency,
                   const ModelConfig &model, double ids, uint64_t misses,
                   uint64_t samples)
{
    emb::Traffic probe;
    probe.dense_read_bytes = ids * kProbeBytesPerId;
    CacheTransferTimes times;
    times.query = latency.pcieTime(ids * sizeof(uint64_t)) +
                  latency.gpuMemTime(probe) +
                  latency.pcieTime(static_cast<double>(misses) *
                                   sizeof(uint64_t));
    times.miss_upload = latency.pcieTime(
        static_cast<double>(misses) * model.rowBytes() +
        static_cast<double>(samples) *
            (model.trace.dense_features + 1) * sizeof(float));
    return times;
}

} // namespace sp::sys

#endif // SP_SYS_SYSTEM_H
