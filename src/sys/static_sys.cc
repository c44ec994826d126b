#include "sys/static_sys.h"

#include <vector>

#include "emb/embedding_ops.h"
#include "emb/traffic.h"
#include "nn/flops.h"

namespace sp::sys
{

StaticCacheSystem::StaticCacheSystem(const ModelConfig &model,
                                     const sim::HardwareConfig &hardware,
                                     double cache_fraction)
    : System(model, hardware),
      cached_rows_(cachedRows(model_, cache_fraction))
{
}

RunResult
StaticCacheSystem::simulate(const data::TraceDataset &dataset,
                            const BatchStats &stats,
                            uint64_t iterations, uint64_t warmup) const
{
    checkRun(dataset, stats, iterations, warmup);

    const auto &hw = latency_.config();
    const auto &trace = model_.trace;
    const uint64_t batch = trace.batch_size;
    const size_t rb = model_.rowBytes();
    using CpuPath = sim::LatencyModel::CpuPath;

    Fig4Totals totals;
    uint64_t total_hits = 0, total_ids = 0;

    // The static cache never changes contents, so warm-up batches are
    // simply skipped.
    std::vector<uint64_t> hit_ids, seen;
    for (uint64_t i = warmup; i < warmup + iterations; ++i) {
        const auto &mini = dataset.batch(i);

        uint64_t hits = 0, misses = 0;
        emb::Traffic cpu_bwd, gpu_bwd;
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
            // coalesced scatters. Hits are the rows [0, cached_rows_),
            // so one bitmap over that range counts them. The partition
            // splits the batch's unique IDs too, so the miss side is
            // what the hits leave.
            const size_t u_hit =
                emb::countUnique(hit_ids, cached_rows_, seen);
            const size_t u_miss = stats.unique(i, t) - u_hit;

            // The missed-ID backward (duplicate + coalesce + scatter)
            // runs on the CPU, the hit-ID backward against the cache.
            cpu_bwd += emb::embeddingBackwardTraffic(table_misses, batch,
                                                     u_miss, rb);
            gpu_bwd += emb::embeddingBackwardTraffic(table_hits, batch,
                                                     u_hit, rb);
        }
        total_hits += hits;
        total_ids += hits + misses;

        // [Query], the host gather of missed rows, their upload, and
        // the GPU gather + reduce; this system adds the backward.
        const CacheTierCost tier =
            cacheTierCost(latency_, model_, hits, misses, batch);

        const double t_cpu_fwd = tier.host_gather + hw.cpu_stage_overhead;

        const double flops =
            nn::dlrmIterationFlops(model_.dlrmConfig(), batch);
        const double t_gpu_train = latency_.gpuComputeTime(flops) +
                                   latency_.gpuMemTime(tier.gpu + gpu_bwd) +
                                   hw.gpu_iteration_overhead;

        // Per-sample gradients back for the missed-ID backward.
        const double t_d2h = latency_.pcieTime(
            static_cast<double>(batch) * trace.num_tables * rb);

        const double t_cpu_bwd =
            latency_.cpuTime(cpu_bwd, CpuPath::Framework) +
            hw.cpu_stage_overhead;

        totals.add(t_cpu_fwd, t_cpu_bwd,
                   tier.query + tier.miss_upload + t_gpu_train + t_d2h);
    }

    RunResult result = totals.result(name(), iterations);
    result.hit_rate = hitRate(total_hits, total_ids);
    result.gpu_bytes =
        static_cast<double>(cached_rows_) * trace.num_tables * rb;
    return result;
}

} // namespace sp::sys
