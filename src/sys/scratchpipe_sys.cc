#include "sys/scratchpipe_sys.h"

#include <algorithm>
#include <span>
#include <vector>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "emb/traffic.h"
#include "nn/flops.h"
#include "sim/pipeline_solver.h"
#include "sys/plan_fanout.h"

namespace sp::sys
{

uint32_t
scratchpadSlots(const ModelConfig &model, const ScratchPipeOptions &options)
{
    // Written as !(in range) so NaN is rejected too.
    fatalIf(!(options.cache_fraction > 0.0 &&
              options.cache_fraction <= 1.0),
            "cache_fraction must be in (0, 1], got ",
            options.cache_fraction);
    const uint64_t rows = model.trace.rows_per_table;
    const uint64_t nominal = static_cast<uint64_t>(
        options.cache_fraction * static_cast<double>(rows));
    uint64_t slots = std::max<uint64_t>(nominal, 1);
    if (options.enforce_capacity_bound) {
        const uint32_t pw = options.pipelined ? options.past_window : 0;
        const uint32_t fw = options.pipelined ? options.future_window : 0;
        slots = std::max<uint64_t>(
            slots, core::ScratchPipeController::worstCaseSlots(
                       pw, fw, model.trace.idsPerTable()));
    }
    slots = std::min<uint64_t>(slots, rows);
    // Slot indices are 32-bit, and 2^32 - 1 is the row index's
    // not-found sentinel.
    fatalIf(slots >= 0xffffffffull, "scratchpad of ", slots,
            " slots per table exceeds the 32-bit slot space");
    return static_cast<uint32_t>(slots);
}

core::ScratchPipeController
makeScratchpadController(const ModelConfig &model,
                         const ScratchPipeOptions &options, size_t table)
{
    core::ControllerConfig cc;
    cc.num_slots = scratchpadSlots(model, options);
    cc.past_window = options.pipelined ? options.past_window : 0;
    cc.future_window = options.pipelined ? options.future_window : 0;
    cc.policy = options.policy;
    cc.warm_start = options.warm_start;
    cc.policy_seed = 0x5eed + table;
    return core::ScratchPipeController(cc);
}

uint64_t
scratchpadStorageBytes(const ModelConfig &model, uint32_t slots)
{
    return uint64_t{slots} *
           (model.rowBytes() + model.optimizerStateBytesPerRow());
}

ScratchPipeSystem::ScratchPipeSystem(const ModelConfig &model,
                                     const sim::HardwareConfig &hardware,
                                     const ScratchPipeOptions &options)
    : System(model, hardware), options_(options)
{
    fatalIf(options.gpus == 0, "gpus must be at least 1");
    fatalIf(options.gpus > 1 && !options.pipelined,
            "the multi-GPU extension models the pipelined design only");
    slots_per_table_ = scratchpadSlots(model_, options_);
}

RunResult
ScratchPipeSystem::simulate(const data::TraceDataset &dataset,
                            const BatchStats &stats, uint64_t iterations,
                            uint64_t warmup) const
{
    checkRun(dataset, stats, iterations, warmup);

    const auto &hw = latency_.config();
    const auto &trace = model_.trace;
    const uint64_t batch = trace.batch_size;
    const size_t rb = model_.rowBytes();
    // Per-row optimizer state (AdaGrad) migrates with fills,
    // write-backs and scatter updates -- but not with gathers.
    const size_t rb_state = rb + model_.optimizerStateBytesPerRow();
    const double n_total = static_cast<double>(trace.idsPerBatch());
    const uint64_t n_per_table = trace.idsPerTable();
    // Table t lives on GPU t % gpus, so GPU 0 owns the most tables.
    const size_t gpus = options_.gpus;
    const size_t tables_per_gpu = (trace.num_tables + gpus - 1) / gpus;
    const double ids_per_gpu =
        static_cast<double>(tables_per_gpu * n_per_table);
    using CpuPath = sim::LatencyModel::CpuPath;

    // Stage demand accumulators, averaged after the loop.
    const char *stage_names[6] = {"Load",     "Plan",   "Collect",
                                  "Exchange", "Insert", "Train"};
    std::vector<sim::StageDemand> total(6);
    for (int s = 0; s < 6; ++s) {
        total[s].name = stage_names[s];
        total[s].overhead = hw.pipeline_stage_overhead;
    }
    // Train carries the framework's per-iteration overhead instead of
    // a bare pipeline sync.
    total[5].overhead = gpus > 1 ? hw.multi_gpu_iteration_overhead
                                 : hw.gpu_iteration_overhead;

    uint64_t total_hits = 0, total_ids = 0;
    const nn::DlrmConfig dlrm = model_.dlrmConfig();
    // The MLPs are data-parallel: each GPU trains 1/gpus of the batch
    // and all-reduces the MLP gradients.
    const double flops = nn::dlrmIterationFlops(dlrm, batch) / gpus;
    const double param_bytes =
        static_cast<double>(dlrm.parameterCount()) * sizeof(float);

    // Demand/traffic accounting for one measured batch: a pure
    // reduction over that batch's per-table outcomes into the stage
    // accumulators.
    const auto account = [&](uint64_t i,
                             std::span<const TablePlanOutcome> outcomes) {
        // Shared CPU DRAM serves every GPU's fills and write-backs;
        // each GPU's HBM and PCIe lanes carry only its own tables', so
        // the peak GPU binds those.
        uint64_t fills = 0, evicts = 0, peak_fills = 0, peak_evicts = 0;
        for (size_t g = 0; g < gpus; ++g) {
            uint64_t gpu_fills = 0, gpu_evicts = 0;
            for (size_t t = g; t < trace.num_tables; t += gpus) {
                gpu_fills += outcomes[t].fills;
                gpu_evicts += outcomes[t].evicts;
                total_hits += outcomes[t].hits;
                total_ids += outcomes[t].ids;
            }
            fills += gpu_fills;
            evicts += gpu_evicts;
            peak_fills = std::max(peak_fills, gpu_fills);
            peak_evicts = std::max(peak_evicts, gpu_evicts);
        }

        const double fill_bytes =
            static_cast<double>(peak_fills) * rb_state;
        const double evict_bytes =
            static_cast<double>(peak_evicts) * rb_state;
        const double cpu_evict_bytes =
            static_cast<double>(evicts) * rb_state;

        // [Load]: stream the next batch's IDs through host memory.
        {
            emb::Traffic t;
            t.dense_read_bytes = n_total * sizeof(uint64_t);
            t.dense_write_bytes = n_total * sizeof(uint64_t);
            total[0].demand += latency_.cpuDemand(t, CpuPath::Runtime);
        }
        // [Plan]: IDs H2D, Hit-Map probes and mask maintenance on the
        // GPU that owns the most tables.
        {
            total[1].demand +=
                latency_.pcieH2DDemand(ids_per_gpu * sizeof(uint64_t));
            emb::Traffic t;
            t.dense_read_bytes = ids_per_gpu * kProbeBytesPerId;
            t.dense_read_bytes += static_cast<double>(slots_per_table_) *
                                  tables_per_gpu * sizeof(uint16_t);
            t.dense_write_bytes += static_cast<double>(slots_per_table_) *
                                   tables_per_gpu * sizeof(uint16_t);
            total[1].demand += latency_.gpuMemDemand(t);
        }
        // [Collect]: CPU gathers all fills; GPUs read victims to
        // staging.
        {
            emb::Traffic cpu = emb::gatherTraffic(fills, rb);
            total[2].demand += latency_.cpuDemand(cpu, CpuPath::Runtime);
            emb::Traffic gpu;
            gpu.sparse_read_bytes = evict_bytes;
            gpu.dense_write_bytes = evict_bytes;
            total[2].demand += latency_.gpuMemDemand(gpu);
        }
        // [Exchange]: full-duplex PCIe, one link per GPU.
        {
            total[3].demand += latency_.pcieH2DDemand(fill_bytes);
            total[3].demand += latency_.pcieD2HDemand(evict_bytes);
        }
        // [Insert]: GPUs write fills into Storage; CPU applies all
        // write-backs to the embedding tables.
        {
            emb::Traffic gpu;
            gpu.dense_read_bytes = fill_bytes;
            gpu.sparse_write_bytes = fill_bytes;
            total[4].demand += latency_.gpuMemDemand(gpu);
            emb::Traffic cpu;
            cpu.dense_read_bytes = cpu_evict_bytes;
            cpu.sparse_write_bytes = cpu_evict_bytes;
            total[4].demand += latency_.cpuDemand(cpu, CpuPath::Runtime);
        }
        // [Train]: the busiest GPU's embedding work at GPU memory
        // speed + its share of the MLPs and dense inputs, then the
        // all-to-all of reduced embeddings and the MLP gradient
        // all-reduce over NVLink (zero bytes on one GPU, and
        // nvlinkTime(0) is 0).
        {
            emb::Traffic busiest;
            for (size_t g = 0; g < gpus; ++g) {
                emb::Traffic gpu;
                for (size_t t = g; t < trace.num_tables; t += gpus) {
                    const size_t unique = stats.unique(i, t);
                    gpu += emb::embeddingForwardTraffic(n_per_table, batch,
                                                        rb);
                    gpu += emb::duplicateTraffic(batch, n_per_table, rb);
                    gpu += emb::coalesceTraffic(n_per_table, unique, rb);
                    // The optimizer update reads/writes state with the
                    // row.
                    gpu += emb::scatterTraffic(unique, rb_state);
                }
                if (latency_.gpuMemTime(gpu) > latency_.gpuMemTime(busiest))
                    busiest = gpu;
            }
            total[5].demand += latency_.gpuMemDemand(busiest);
            total[5].demand += latency_.gpuComputeDemand(flops);
            total[5].demand += latency_.pcieH2DDemand(
                static_cast<double>(batch) * (trace.dense_features + 1) *
                sizeof(float) / gpus);
            const double a2a_bytes = static_cast<double>(batch) *
                                     tables_per_gpu * rb * (gpus - 1.0) /
                                     gpus;
            total[5].demand += latency_.nvlinkDemand(2.0 * a2a_bytes);
            total[5].demand += latency_.nvlinkDemand(
                2.0 * param_bytes * (gpus - 1.0) / gpus);
        }
    };

    // Real controllers drive hit/miss behaviour. Table t's plans
    // depend only on its own earlier plans, so each table is one pool
    // task that builds its controller, streams it through every batch
    // and frees it: at most one controller per pool lane is alive, and
    // no barrier joins the tables between batches. Warm-up batches run
    // through the controllers (populating the scratchpad toward steady
    // state, as the paper's measurements do) but contribute nothing to
    // the accumulators.
    const size_t tables = trace.num_tables;
    const uint64_t batches = warmup + iterations;
    std::vector<TablePlanOutcome> outcomes(batches * tables);
    std::vector<size_t> metadata_bytes(tables);
    common::parallelFor(tables, [&](size_t t) {
        core::ScratchPipeController controller =
            makeScratchpadController(model_, options_, t);
        planTableStream(controller, dataset, t, tables, outcomes);
        metadata_bytes[t] = controller.metadataBytes();
    });
    for (uint64_t i = warmup; i < batches; ++i)
        account(i, std::span<const TablePlanOutcome>(outcomes).subspan(
                       i * tables, tables));

    // Average demands over the measured iterations.
    const double inv = 1.0 / static_cast<double>(iterations);
    for (auto &stage : total) {
        for (auto &s : stage.demand.seconds)
            s *= inv;
    }

    RunResult result;
    result.iterations = iterations;
    result.system_name = name();
    if (options_.pipelined) {
        const auto solution = sim::solvePipeline(total);
        result.seconds_per_iteration = solution.cycle_time;
        result.bottleneck = solution.bottleneck;
        for (size_t s = 0; s < total.size(); ++s)
            result.breakdown.add(total[s].name,
                                 solution.stage_latencies[s]);
    } else {
        result.seconds_per_iteration = sim::sequentialIterationTime(total);
        for (const auto &stage : total)
            result.breakdown.add(stage.name, stage.latency());
    }

    // Busy-time attribution: per retired iteration each stage's work
    // executes exactly once.
    double cpu_busy = 0.0, gpu_busy = 0.0;
    for (const auto &stage : total) {
        cpu_busy += stage.demand[sim::Resource::CpuDram];
        gpu_busy += stage.demand[sim::Resource::GpuHbm] +
                    stage.demand[sim::Resource::GpuCompute] +
                    stage.demand[sim::Resource::PcieH2D] +
                    stage.demand[sim::Resource::PcieD2H] +
                    stage.demand[sim::Resource::NvLink];
    }
    result.busy.iteration_seconds = result.seconds_per_iteration;
    result.busy.cpu_busy_seconds = cpu_busy;
    result.busy.gpu_busy_seconds = gpu_busy;

    result.hit_rate = hitRate(total_hits, total_ids);
    const uint64_t storage_bytes =
        scratchpadStorageBytes(model_, slots_per_table_);
    double gpu_bytes = 0.0;
    for (size_t t = 0; t < tables; ++t) {
        gpu_bytes += static_cast<double>(storage_bytes);
        gpu_bytes += static_cast<double>(metadata_bytes[t]);
    }
    result.gpu_bytes = gpu_bytes;
    return result;
}

} // namespace sp::sys
