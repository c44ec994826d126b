#include "sys/serving.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <memory>
#include <vector>

#include "cache/hit_map.h"
#include "common/fault.h"
#include "common/logging.h"
#include "emb/traffic.h"
#include "metrics/percentile.h"
#include "nn/flops.h"
#include "sim/event_queue.h"
#include "sys/registry.h"

namespace sp::sys
{

namespace
{

/**
 * One table's GPU embedding-cache tier. Static mode pins the hottest
 * `capacity` ranks (synthetic IDs are rank-ordered, so `id < capacity`
 * is the hot-set test, as in StaticCacheSystem). Dynamic mode runs a
 * HitMap + ReplacementPolicy cache that admits every missed row.
 */
class TierCache
{
  public:
    TierCache(bool dynamic, uint64_t capacity, cache::PolicyKind kind,
              uint64_t seed)
        : dynamic_(dynamic), capacity_(capacity)
    {
        if (!dynamic_)
            return;
        // Slot indices are 32-bit (HitMap contract); a serving tier
        // beyond 2^32 - 2 rows per table would need sharded maps.
        fatalIf(capacity_ >= 0xffffffffull,
                "serve: GPU tier of ", capacity_,
                " rows per table exceeds the 32-bit slot space");
        map_ = std::make_unique<cache::HitMap>(
            static_cast<size_t>(capacity_));
        policy_ = cache::makePolicy(kind, seed);
        policy_->reset(static_cast<uint32_t>(capacity_));
        slot_key_.resize(static_cast<size_t>(capacity_), 0);
    }

    /** True when `id` is GPU-resident; dynamic mode admits misses. */
    bool lookup(uint64_t id)
    {
        if (!dynamic_)
            return id < capacity_;
        uint32_t slot = map_->find(id);
        if (slot != cache::HitMap::kNotFound) {
            policy_->touch(slot);
            return true;
        }
        if (used_ < capacity_) {
            slot = static_cast<uint32_t>(used_++);
        } else {
            slot = policy_->chooseVictim([](uint32_t) { return true; });
            map_->erase(slot_key_[slot]);
        }
        map_->insert(id, slot);
        slot_key_[slot] = id;
        policy_->touch(slot);
        return false;
    }

  private:
    bool dynamic_;
    uint64_t capacity_;
    uint64_t used_ = 0;
    std::unique_ptr<cache::HitMap> map_;
    std::unique_ptr<cache::ReplacementPolicy> policy_;
    std::vector<uint64_t> slot_key_;
};

/** A request waiting for admission. */
struct Pending
{
    double arrival = 0.0;
    uint64_t index = 0;
};

/** All mutable state of one serving simulation. */
struct ServeContext
{
    // Wiring (const for the whole run).
    const data::TraceDataset &dataset;
    const sim::LatencyModel &latency;
    const ModelConfig &model;
    const ServeOptions &options;
    uint64_t total_requests = 0;
    uint64_t warm_requests = 0;

    // Virtual-time machinery.
    sim::EventQueue events;
    data::ArrivalProcess arrivals;
    std::vector<Pending> queue;
    std::vector<TierCache> tiers;
    double server_free = 0.0;

    // Measured outcomes.
    metrics::PercentileReservoir latencies;
    double wait_sum = 0.0;
    double service_sum = 0.0;
    double cpu_busy = 0.0;
    double gpu_busy = 0.0;
    double depth_sum = 0.0;
    uint64_t depth_samples = 0;
    uint64_t depth_max = 0;
    uint64_t hits = 0;
    uint64_t ids = 0;
    uint64_t served = 0;
    uint64_t dropped = 0;
    uint64_t batches = 0;
    double first_measured_arrival = -1.0;
    double last_completion = 0.0;

    ServeContext(const data::TraceDataset &dataset_,
                 const sim::LatencyModel &latency_,
                 const ModelConfig &model_, const ServeOptions &options_)
        : dataset(dataset_), latency(latency_), model(model_),
          options(options_), arrivals(options_.arrival, model_.trace.seed)
    {
    }

    void scheduleArrival(uint64_t request);
    void onArrival(uint64_t request, double when);
    void dispatch(double admit);
    double serviceTime(uint64_t admitted_hits, uint64_t admitted_misses,
                       uint64_t admitted, bool measured);
};

void
ServeContext::scheduleArrival(uint64_t request)
{
    events.schedule(arrivals.next(), [this, request] {
        onArrival(request, events.now());
    });
}

void
ServeContext::onArrival(uint64_t request, double when)
{
    // Chain the stream: each arrival schedules the next so the event
    // queue never holds more than one future arrival.
    if (request + 1 < total_requests)
        scheduleArrival(request + 1);

    const bool measured = request >= warm_requests;
    if (measured && first_measured_arrival < 0.0)
        first_measured_arrival = when;

    // serve.request.drop: admission-control fault. The documented
    // degradation: this request is counted dropped and excluded from
    // latency/queue accounting; the stream and the run continue.
    bool drop = false;
    try {
        SP_FAULT_POINT("serve.request.drop");
    } catch (const common::fault::FaultInjectedError &) {
        drop = true;
    }
    if (drop) {
        if (measured)
            ++dropped;
        return;
    }

    queue.push_back(Pending{when, request});
    if (measured) {
        depth_sum += static_cast<double>(queue.size());
        ++depth_samples;
        depth_max = std::max<uint64_t>(depth_max, queue.size());
    }

    if (queue.size() >= options.batch_max) {
        dispatch(when);
    } else if (queue.size() == 1) {
        // Arm the admission deadline for this queue generation. If the
        // batch fills (or a deadline dispatches it) first, the front
        // index no longer matches and the stale timer is a no-op.
        events.schedule(when + options.budget_us * 1e-6,
                        [this, request] {
            if (!queue.empty() && queue.front().index == request)
                dispatch(events.now());
        });
    }
}

void
ServeContext::dispatch(double admit)
{
    const size_t num_tables = model.trace.num_tables;
    const size_t lookups = model.trace.lookups_per_table;
    const uint64_t trace_batch = model.trace.batch_size;

    uint64_t batch_hits = 0, batch_misses = 0;
    bool measured = false;
    for (const Pending &request : queue) {
        measured = measured || request.index >= warm_requests;
        const auto &mini = dataset.batch(request.index / trace_batch);
        const size_t sample =
            static_cast<size_t>(request.index % trace_batch);
        for (size_t t = 0; t < num_tables; ++t) {
            const auto sample_ids =
                mini.ids(t).subspan(sample * lookups, lookups);
            for (const uint64_t id : sample_ids) {
                if (tiers[t].lookup(id))
                    ++batch_hits;
                else
                    ++batch_misses;
            }
        }
    }

    const uint64_t admitted = queue.size();
    const double service =
        serviceTime(batch_hits, batch_misses, admitted, measured);
    const double start = std::max(admit, server_free);
    const double completion = start + service;
    server_free = completion;

    for (const Pending &request : queue) {
        if (request.index < warm_requests)
            continue;
        latencies.add(completion - request.arrival);
        wait_sum += start - request.arrival;
        service_sum += service;
        ++served;
    }
    if (measured) {
        ++batches;
        hits += batch_hits;
        ids += batch_hits + batch_misses;
        last_completion = completion;
    }
    queue.clear();

    // Advance the virtual clock past the completion so events.now()
    // ends at the drain point of the last batch.
    events.schedule(completion, [] {});
}

double
ServeContext::serviceTime(uint64_t admitted_hits,
                          uint64_t admitted_misses, uint64_t admitted,
                          bool measured)
{
    const auto &hw = latency.config();
    const size_t rb = model.rowBytes();
    const double n_ids =
        static_cast<double>(admitted_hits + admitted_misses);
    using CpuPath = sim::LatencyModel::CpuPath;

    // [Query] IDs up, probe the GPU tier, missed IDs back to the host.
    emb::Traffic probe;
    probe.dense_read_bytes = n_ids * 16.0; // hash-table probes
    const double t_query =
        latency.pcieTime(n_ids * sizeof(uint64_t)) +
        latency.gpuMemTime(probe) +
        latency.pcieTime(static_cast<double>(admitted_misses) *
                         sizeof(uint64_t));

    // Host parameter server gathers the missed rows.
    const double t_host =
        latency.cpuTime(emb::gatherTraffic(admitted_misses, rb),
                        CpuPath::Framework) +
        hw.cpu_serve_overhead;

    // Missed embeddings + dense inputs up.
    const double h2d_bytes =
        static_cast<double>(admitted_misses) * rb +
        static_cast<double>(admitted) * (model.trace.dense_features + 1) *
            sizeof(float);
    const double t_h2d = latency.pcieTime(h2d_bytes);

    // GPU: gather hit rows, reduce per sample, insert refreshed rows
    // (dynamic tier writes every missed row back), forward pass.
    emb::Traffic gpu;
    gpu += emb::gatherTraffic(admitted_hits, rb);
    for (size_t t = 0; t < model.trace.num_tables; ++t)
        gpu += emb::reduceTraffic(
            admitted * model.trace.lookups_per_table, admitted, rb);
    if (options.dynamic_refresh)
        gpu.sparse_write_bytes +=
            static_cast<double>(admitted_misses) * rb;
    const double flops = nn::dlrmForwardFlops(
        model.dlrmConfig(), static_cast<size_t>(admitted));
    const double t_gpu = latency.gpuComputeTime(flops) +
                         latency.gpuMemTime(gpu) + hw.gpu_serve_overhead;

    // Predictions back (one float per request).
    const double t_d2h = latency.pcieTime(
        static_cast<double>(admitted) * sizeof(float));

    if (measured) {
        cpu_busy += t_host;
        gpu_busy += t_query + t_h2d + t_gpu + t_d2h;
    }
    return t_query + t_host + t_h2d + t_gpu + t_d2h;
}

} // namespace

std::string
ServeOptions::validationError() const
{
    const std::string arrival_problem = arrival.validationError();
    if (!arrival_problem.empty())
        return arrival_problem;
    if (batch_max < 1)
        return "batch_max must be at least 1";
    // Written as !(in range) so NaN is rejected too.
    if (!(budget_us >= 0.0) || !std::isfinite(budget_us))
        return "budget_us must be a non-negative, finite latency "
               "budget (microseconds)";
    if (!(cache_fraction > 0.0 && cache_fraction <= 1.0))
        return "cache fraction must be in (0, 1]";
    return "";
}

ServingSystem::ServingSystem(const ModelConfig &model,
                             const sim::HardwareConfig &hardware,
                             const ServeOptions &options)
    : model_(model), latency_(hardware), options_(options)
{
    model_.validate();
    const std::string problem = options_.validationError();
    fatalIf(!problem.empty(), "serve spec: ", problem);
    cached_rows_ = static_cast<uint64_t>(
        options_.cache_fraction *
        static_cast<double>(model_.trace.rows_per_table));
    fatalIf(cached_rows_ == 0, "serve: cache fraction ",
            options_.cache_fraction, " caches zero rows per table");
}

RunResult
ServingSystem::simulate(const data::TraceDataset &dataset,
                        const BatchStats & /*stats*/,
                        uint64_t iterations, uint64_t warmup) const
{
    fatalIf(iterations == 0, "need at least one iteration");
    fatalIf(warmup + iterations > dataset.numBatches(),
            "dataset has only ", dataset.numBatches(), " batches");

    ServeContext ctx(dataset, latency_, model_, options_);
    ctx.total_requests =
        (warmup + iterations) * model_.trace.batch_size;
    ctx.warm_requests = warmup * model_.trace.batch_size;
    ctx.queue.reserve(options_.batch_max);
    ctx.latencies.reserve(static_cast<size_t>(iterations) *
                          model_.trace.batch_size);
    for (size_t t = 0; t < model_.trace.num_tables; ++t)
        ctx.tiers.emplace_back(options_.dynamic_refresh, cached_rows_,
                               options_.policy,
                               model_.trace.seed + 0x5e57e * (t + 1));

    ctx.scheduleArrival(0);
    // splint:hot-path-begin(serve-event-drain)
    while (ctx.events.runNext()) {
    }
    // splint:hot-path-end

    const double span =
        ctx.last_completion - std::max(ctx.first_measured_arrival, 0.0);
    RunResult result;
    result.system_name = name();
    result.iterations = iterations;
    result.serving.enabled = true;
    result.serving.requests = ctx.served;
    result.serving.dropped = ctx.dropped;
    result.serving.batches = ctx.batches;
    result.serving.offered_rate = options_.arrival.rate;
    if (ctx.served > 0) {
        result.serving.achieved_rate =
            span > 0.0 ? static_cast<double>(ctx.served) / span : 0.0;
        result.serving.p50 = ctx.latencies.percentile(0.50);
        result.serving.p99 = ctx.latencies.percentile(0.99);
        result.serving.p999 = ctx.latencies.percentile(0.999);
        result.serving.mean = ctx.latencies.mean();
        result.serving.max = ctx.latencies.maxValue();
        const double inv_served = 1.0 / static_cast<double>(ctx.served);
        result.breakdown.add("request wait", ctx.wait_sum * inv_served);
        result.breakdown.add("request service",
                             ctx.service_sum * inv_served);
    }
    if (ctx.depth_samples > 0) {
        result.serving.mean_queue_depth =
            ctx.depth_sum / static_cast<double>(ctx.depth_samples);
        result.serving.max_queue_depth =
            static_cast<double>(ctx.depth_max);
    }
    if (ctx.batches > 0)
        result.serving.mean_batch_fill =
            static_cast<double>(ctx.served) /
            static_cast<double>(ctx.batches);

    const double inv_iters = 1.0 / static_cast<double>(iterations);
    result.seconds_per_iteration = span > 0.0 ? span * inv_iters : 0.0;
    result.busy.iteration_seconds = result.seconds_per_iteration;
    result.busy.cpu_busy_seconds = ctx.cpu_busy * inv_iters;
    result.busy.gpu_busy_seconds = ctx.gpu_busy * inv_iters;
    result.hit_rate = ctx.ids == 0
                          ? 0.0
                          : static_cast<double>(ctx.hits) /
                                static_cast<double>(ctx.ids);
    // Cached rows plus ~16 B of HitMap metadata per dynamic slot.
    result.gpu_bytes =
        static_cast<double>(cached_rows_) * model_.trace.num_tables *
        (model_.rowBytes() + (options_.dynamic_refresh ? 16.0 : 0.0));
    return result;
}

void
registerServingSystem(Registry &registry)
{
    registry.addEntry(
        {"serve", ServingSystem::kDescription,
         {OptionSet::Cache, OptionSet::Serve},
         [](const ModelConfig &model, const sim::HardwareConfig &hw,
            const SystemSpec &spec) -> std::unique_ptr<System> {
             return std::make_unique<ServingSystem>(
                 model, hw, spec.serveOptions());
         }});
}

} // namespace sp::sys
