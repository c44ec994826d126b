#include "sys/multigpu.h"

#include <algorithm>

#include "emb/traffic.h"
#include "nn/flops.h"

namespace sp::sys
{

MultiGpuSystem::MultiGpuSystem(const ModelConfig &model,
                               const sim::HardwareConfig &hardware)
    : System(model, hardware)
{
}

RunResult
MultiGpuSystem::simulate(const data::TraceDataset &dataset,
                         const BatchStats &stats, uint64_t iterations,
                         uint64_t warmup) const
{
    checkRun(dataset, stats, iterations, warmup);

    const auto &hw = latency_.config();
    const auto &trace = model_.trace;
    const uint64_t batch = trace.batch_size;
    const size_t rb = model_.rowBytes();
    const uint64_t n_per_table = trace.idsPerTable();
    const int gpus = hw.multi_gpu_count;
    const size_t tables_per_gpu =
        (trace.num_tables + gpus - 1) / static_cast<size_t>(gpus);

    // MLP parameter bytes for the ring all-reduce.
    const nn::DlrmConfig dlrm = model_.dlrmConfig();
    const double param_bytes =
        static_cast<double>(dlrm.parameterCount()) * sizeof(float);

    double total_emb = 0.0, total_comm = 0.0, total_mlp = 0.0;
    double gpu_busy = 0.0;

    // GPU-only training is stateless iteration to iteration; skip the
    // warm-up prefix.
    for (uint64_t i = warmup; i < warmup + iterations; ++i) {
        // Per-GPU embedding forward + backward for its own tables; the
        // slowest GPU (most tables) binds, so charge tables_per_gpu.
        emb::Traffic emb_local;
        double dup_ratio = 0.0;
        for (size_t t = 0; t < tables_per_gpu && t < trace.num_tables;
             ++t) {
            const size_t u = stats.unique(i, t);
            emb_local += emb::embeddingForwardTraffic(n_per_table, batch,
                                                      rb);
            emb_local += emb::embeddingBackwardTraffic(n_per_table, batch,
                                                       u, rb);
            dup_ratio += 1.0 - static_cast<double>(u) /
                                   static_cast<double>(n_per_table);
        }
        dup_ratio /= static_cast<double>(tables_per_gpu);
        const double t_emb = latency_.gpuMemTime(emb_local) +
                             hw.multi_gpu_hot_row_penalty * dup_ratio;

        // All-to-all of reduced embeddings, forward and backward.
        const double a2a_bytes = static_cast<double>(batch) *
                                 tables_per_gpu * rb *
                                 (gpus - 1.0) / gpus;
        const double t_a2a = 2.0 * latency_.nvlinkTime(a2a_bytes);

        // Data-parallel MLPs: 1/gpus of the batch each, plus a ring
        // all-reduce of the weight gradients.
        const double flops =
            nn::dlrmIterationFlops(dlrm, batch) / gpus;
        const double t_mlp = latency_.gpuComputeTime(flops);
        const double allreduce_bytes =
            2.0 * param_bytes * (gpus - 1.0) / gpus;
        const double t_allreduce = latency_.nvlinkTime(allreduce_bytes);

        // Host input pipeline: each GPU pulls its shard of IDs and
        // dense features over PCIe.
        const double input_bytes =
            (static_cast<double>(trace.idsPerBatch()) * sizeof(uint64_t) +
             static_cast<double>(batch) * (trace.dense_features + 1) *
                 sizeof(float)) /
            gpus;
        const double t_input = latency_.pcieTime(input_bytes);

        total_emb += t_emb;
        total_comm += t_a2a + t_allreduce + t_input;
        total_mlp += t_mlp;
        gpu_busy += t_emb + t_a2a + t_allreduce + t_mlp + t_input;
    }

    const double inv = 1.0 / static_cast<double>(iterations);
    RunResult result;
    result.system_name = name();
    result.iterations = iterations;
    result.breakdown.add("GPU embedding", total_emb * inv);
    result.breakdown.add("Communication", total_comm * inv);
    result.breakdown.add("GPU MLP", total_mlp * inv);
    result.breakdown.add("Framework", hw.multi_gpu_iteration_overhead);
    result.seconds_per_iteration = result.breakdown.total();
    result.busy.iteration_seconds = result.seconds_per_iteration;
    result.busy.cpu_busy_seconds = 0.1 * result.seconds_per_iteration;
    result.busy.gpu_busy_seconds =
        std::min(gpu_busy * inv + hw.multi_gpu_iteration_overhead,
                 result.seconds_per_iteration);
    result.gpu_bytes = static_cast<double>(model_.embeddingModelBytes());
    return result;
}

} // namespace sp::sys
