#include "sys/hybrid.h"

#include "emb/traffic.h"
#include "nn/flops.h"

namespace sp::sys
{

HybridCpuGpu::HybridCpuGpu(const ModelConfig &model,
                           const sim::HardwareConfig &hardware)
    : System(model, hardware)
{
}

RunResult
HybridCpuGpu::simulate(const data::TraceDataset &dataset,
                       const BatchStats &stats, uint64_t iterations,
                       uint64_t warmup) const
{
    checkRun(dataset, stats, iterations, warmup);

    const auto &hw = latency_.config();
    const auto &trace = model_.trace;
    const uint64_t n_per_table = trace.idsPerTable();
    const uint64_t batch = trace.batch_size;
    const size_t rb = model_.rowBytes();
    using CpuPath = sim::LatencyModel::CpuPath;

    Fig4Totals totals;

    // The baseline is stateless across iterations; warm-up batches are
    // simply skipped (the parameter exists for interface uniformity
    // with the stateful cache systems).
    for (uint64_t i = warmup; i < warmup + iterations; ++i) {
        // CPU embedding forward: gather + reduce per table.
        emb::Traffic fwd;
        for (size_t t = 0; t < trace.num_tables; ++t)
            fwd += emb::embeddingForwardTraffic(n_per_table, batch, rb);
        const double t_fwd = latency_.cpuTime(fwd, CpuPath::Framework) +
                             hw.cpu_stage_overhead;

        // Reduced embeddings + dense inputs to the GPU.
        const double h2d_bytes =
            static_cast<double>(batch) * trace.num_tables * rb +
            static_cast<double>(batch) * (trace.dense_features + 1) *
                sizeof(float);
        const double t_h2d = latency_.pcieTime(h2d_bytes);

        // GPU DNN training.
        const double flops =
            nn::dlrmIterationFlops(model_.dlrmConfig(), batch);
        const double t_mlp = latency_.gpuComputeTime(flops) +
                             hw.gpu_iteration_overhead;

        // Embedding gradients back to the CPU.
        const double d2h_bytes =
            static_cast<double>(batch) * trace.num_tables * rb;
        const double t_d2h = latency_.pcieTime(d2h_bytes);

        // CPU embedding backward: duplicate + coalesce + scatter.
        emb::Traffic bwd;
        for (size_t t = 0; t < trace.num_tables; ++t) {
            bwd += emb::embeddingBackwardTraffic(
                n_per_table, batch, stats.unique(i, t), rb);
        }
        const double t_bwd = latency_.cpuTime(bwd, CpuPath::Framework) +
                             hw.cpu_stage_overhead;

        totals.add(t_fwd, t_bwd, t_h2d + t_mlp + t_d2h);
    }
    return totals.result(name(), iterations);
}

} // namespace sp::sys
