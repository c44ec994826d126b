#include "sys/static_sys.h"

#include <algorithm>
#include <memory>
#include <vector>

#include "common/logging.h"
#include "emb/embedding_ops.h"
#include "emb/traffic.h"
#include "nn/flops.h"
#include "sys/registry.h"

namespace sp::sys
{

StaticCacheSystem::StaticCacheSystem(const ModelConfig &model,
                                     const sim::HardwareConfig &hardware,
                                     double cache_fraction)
    : model_(model), latency_(hardware), cache_fraction_(cache_fraction)
{
    model_.validate();
    // Written as !(in range) so NaN is rejected too.
    fatalIf(!(cache_fraction > 0.0 && cache_fraction <= 1.0),
            "cache_fraction must be in (0, 1], got ", cache_fraction);
    cached_rows_ = static_cast<uint64_t>(
        cache_fraction * static_cast<double>(model_.trace.rows_per_table));
    fatalIf(cached_rows_ == 0,
            "cache_fraction ", cache_fraction, " caches zero rows");
}

RunResult
StaticCacheSystem::simulate(const data::TraceDataset &dataset,
                            const BatchStats &stats,
                            uint64_t iterations, uint64_t warmup) const
{
    fatalIf(iterations == 0, "need at least one iteration");
    fatalIf(warmup + iterations > dataset.numBatches(),
            "dataset has only ", dataset.numBatches(), " batches");
    fatalIf(warmup + iterations > stats.iterations(), "stats cover only ",
            stats.iterations(), " batches");

    const auto &hw = latency_.config();
    const auto &trace = model_.trace;
    const uint64_t batch = trace.batch_size;
    const size_t rb = model_.rowBytes();
    const double n_total = static_cast<double>(trace.idsPerBatch());
    using CpuPath = sim::LatencyModel::CpuPath;

    double total_fwd = 0.0, total_bwd = 0.0, total_gpu = 0.0;
    double cpu_busy = 0.0, gpu_busy = 0.0;
    uint64_t total_hits = 0, total_ids = 0;

    // The static cache never changes contents, so warm-up batches are
    // simply skipped.
    std::vector<uint64_t> hit_ids, unique_scratch;
    for (uint64_t i = warmup; i < warmup + iterations; ++i) {
        const auto &mini = dataset.batch(i);

        uint64_t hits = 0, misses = 0;
        emb::Traffic cpu_fwd, cpu_bwd, gpu_emb;
        for (size_t t = 0; t < trace.num_tables; ++t) {
            const auto ids = mini.ids(t);
            hit_ids.clear();
            for (uint64_t id : ids) {
                if (id < cached_rows_)
                    hit_ids.push_back(id);
            }
            const uint64_t table_hits = hit_ids.size();
            const uint64_t table_misses = ids.size() - table_hits;
            hits += table_hits;
            misses += table_misses;

            // Unique counts within the hit/miss partitions size the
            // coalesced scatters. The partition splits the batch's
            // unique IDs too, so the miss side is what the hits leave.
            const size_t u_hit = emb::countUnique(hit_ids, unique_scratch);
            const size_t u_miss = stats.unique(i, t) - u_hit;

            // CPU side: gather missed rows, and the full missed-ID
            // backward (duplicate + coalesce + scatter).
            cpu_fwd += emb::gatherTraffic(table_misses, rb);
            cpu_bwd += emb::embeddingBackwardTraffic(table_misses, batch,
                                                     u_miss, rb);

            // GPU side: gather hit rows, reduce everything, and the
            // hit-ID backward against the cache.
            gpu_emb += emb::gatherTraffic(table_hits, rb);
            gpu_emb += emb::reduceTraffic(ids.size(), batch, rb);
            gpu_emb += emb::embeddingBackwardTraffic(table_hits, batch,
                                                     u_hit, rb);
        }
        total_hits += hits;
        total_ids += hits + misses;

        // [Query], then missed embeddings + dense inputs up.
        const CacheTransferTimes transfer =
            cacheTransferTimes(latency_, model_, n_total, misses, batch);

        const double t_cpu_fwd =
            latency_.cpuTime(cpu_fwd, CpuPath::Framework) +
            hw.cpu_stage_overhead;

        const double flops =
            nn::dlrmIterationFlops(model_.dlrmConfig(), batch);
        const double t_gpu_train = latency_.gpuComputeTime(flops) +
                                   latency_.gpuMemTime(gpu_emb) +
                                   hw.gpu_iteration_overhead;

        // Per-sample gradients back for the missed-ID backward.
        const double t_d2h = latency_.pcieTime(
            static_cast<double>(batch) * trace.num_tables * rb);

        const double t_cpu_bwd =
            latency_.cpuTime(cpu_bwd, CpuPath::Framework) +
            hw.cpu_stage_overhead;

        const double t_gpu = transfer.query + transfer.miss_upload +
                             t_gpu_train + t_d2h;
        total_fwd += t_cpu_fwd;
        total_bwd += t_cpu_bwd;
        total_gpu += t_gpu;
        cpu_busy += t_cpu_fwd + t_cpu_bwd;
        gpu_busy += t_gpu;
    }

    const double inv = 1.0 / static_cast<double>(iterations);
    RunResult result;
    result.system_name = name();
    result.iterations = iterations;
    result.breakdown.add("CPU embedding forward", total_fwd * inv);
    result.breakdown.add("CPU embedding backward", total_bwd * inv);
    result.breakdown.add("GPU", total_gpu * inv);
    result.seconds_per_iteration = result.breakdown.total();
    result.busy.iteration_seconds = result.seconds_per_iteration;
    result.busy.cpu_busy_seconds = cpu_busy * inv;
    result.busy.gpu_busy_seconds = gpu_busy * inv;
    result.hit_rate = total_ids == 0
                          ? 0.0
                          : static_cast<double>(total_hits) /
                                static_cast<double>(total_ids);
    result.gpu_bytes =
        static_cast<double>(cached_rows_) * trace.num_tables * rb;
    return result;
}

void
registerStaticCacheSystem(Registry &registry)
{
    registry.addEntry(
        {"static", StaticCacheSystem::kDescription,
         {OptionSet::Cache},
         [](const ModelConfig &model, const sim::HardwareConfig &hw,
            const SystemSpec &spec) -> std::unique_ptr<System> {
             return std::make_unique<StaticCacheSystem>(
                 model, hw, spec.cacheFractionOr(0.10));
         }});
}

} // namespace sp::sys
