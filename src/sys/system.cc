#include "sys/system.h"

#include "common/logging.h"

namespace sp::sys
{

System::System(const ModelConfig &model, const sim::HardwareConfig &hardware)
    : model_(model), latency_(hardware)
{
    model_.validate();
}

void
checkRun(const data::TraceDataset &dataset, const BatchStats &stats,
         uint64_t iterations, uint64_t warmup)
{
    fatalIf(iterations == 0, "need at least one iteration");
    fatalIf(warmup + iterations > dataset.numBatches(),
            "dataset has only ", dataset.numBatches(), " batches");
    fatalIf(warmup + iterations > stats.iterations(), "stats cover only ",
            stats.iterations(), " batches");
}

uint64_t
cachedRows(const ModelConfig &model, double fraction)
{
    // Written as !(in range) so NaN is rejected too.
    fatalIf(!(fraction > 0.0 && fraction <= 1.0),
            "cache_fraction must be in (0, 1], got ", fraction);
    const auto rows = static_cast<uint64_t>(
        fraction * static_cast<double>(model.trace.rows_per_table));
    fatalIf(rows == 0, "cache_fraction ", fraction, " caches zero rows");
    return rows;
}

double
hitRate(uint64_t hits, uint64_t ids)
{
    return ids == 0 ? 0.0
                    : static_cast<double>(hits) / static_cast<double>(ids);
}

CacheTierCost
cacheTierCost(const sim::LatencyModel &latency, const ModelConfig &model,
              uint64_t hits, uint64_t misses, uint64_t samples)
{
    const size_t rb = model.rowBytes();
    const double ids = static_cast<double>(hits + misses);
    emb::Traffic probe;
    probe.dense_read_bytes = ids * kProbeBytesPerId;
    CacheTierCost cost;
    cost.query = latency.pcieTime(ids * sizeof(uint64_t)) +
                 latency.gpuMemTime(probe) +
                 latency.pcieTime(static_cast<double>(misses) *
                                  sizeof(uint64_t));
    cost.host_gather = latency.cpuTime(emb::gatherTraffic(misses, rb),
                                       sim::LatencyModel::CpuPath::Framework);
    cost.miss_upload = latency.pcieTime(
        static_cast<double>(misses) * rb +
        static_cast<double>(samples) *
            (model.trace.dense_features + 1) * sizeof(float));
    // Byte counts are exact integers, so the sum's grouping is free.
    cost.gpu = emb::gatherTraffic(hits, rb);
    for (size_t t = 0; t < model.trace.num_tables; ++t)
        cost.gpu += emb::reduceTraffic(
            samples * model.trace.lookups_per_table, samples, rb);
    return cost;
}

void
Fig4Totals::add(double forward, double backward, double gpu_side)
{
    cpu_forward += forward;
    cpu_backward += backward;
    gpu += gpu_side;
    cpu_busy += forward + backward;
}

RunResult
Fig4Totals::result(const std::string &name, uint64_t iterations) const
{
    const double inv = 1.0 / static_cast<double>(iterations);
    RunResult result;
    result.system_name = name;
    result.iterations = iterations;
    result.breakdown.add("CPU embedding forward", cpu_forward * inv);
    result.breakdown.add("CPU embedding backward", cpu_backward * inv);
    result.breakdown.add("GPU", gpu * inv);
    result.seconds_per_iteration = result.breakdown.total();
    result.busy.iteration_seconds = result.seconds_per_iteration;
    result.busy.cpu_busy_seconds = cpu_busy * inv;
    // Everything on the GPU side is the GPU stage.
    result.busy.gpu_busy_seconds = gpu * inv;
    return result;
}

} // namespace sp::sys
