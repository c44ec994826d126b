#include "sys/serving.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <utility>
#include <variant>
#include <vector>

#include "cache/row_index.h"
#include "common/fault.h"
#include "common/logging.h"
#include "common/thread_pool.h"
#include "metrics/percentile.h"
#include "nn/flops.h"

namespace sp::sys
{

namespace
{

/**
 * One table's dynamic GPU embedding-cache tier: a RowIndex + `Policy`
 * cache that admits every missed row. Typed on the policy, so a lookup
 * makes no indirect call.
 */
template <typename Policy>
class TierCache
{
  public:
    TierCache(uint32_t capacity, Policy policy)
        : capacity_(capacity), policy_(std::move(policy)),
          slot_key_(capacity, 0)
    {
    }

    /** True when `id` is GPU-resident; a miss admits it. */
    bool
    lookup(uint64_t id)
    {
        uint32_t slot = index_.find(id);
        if (slot != cache::RowIndex::kNotFound) {
            policy_.touch(slot);
            return true;
        }
        if (used_ < capacity_) {
            slot = used_++;
        } else {
            slot = policy_.chooseVictim([](uint32_t) { return true; });
            index_.erase(slot_key_[slot]);
        }
        index_.insert(id, slot);
        slot_key_[slot] = id;
        policy_.touch(slot);
        return false;
    }

  private:
    uint32_t capacity_;
    uint32_t used_ = 0;
    cache::RowIndex index_;
    Policy policy_;
    std::vector<uint64_t> slot_key_;
};

/** A request admitted into a batch. */
struct Pending
{
    double arrival = 0.0;
    uint64_t index = 0;
};

/** Pass 1's output: the batches and the admission-side counters. */
struct Admission
{
    /** Undropped requests in arrival order; batch b holds
     *  requests[end[b - 1], end[b]) (from 0 for b = 0). */
    std::vector<Pending> requests;
    std::vector<size_t> end;
    /** When each batch was admitted: its fill or its deadline. */
    std::vector<double> admit;
    double depth_sum = 0.0;
    uint64_t depth_samples = 0;
    uint64_t depth_max = 0;
    uint64_t dropped = 0;
    double first_measured_arrival = 0.0;
};

/** Pass 1: batch the arrival stream (see serving.h for the rules). */
Admission
admitRequests(const ServeOptions &options, uint64_t seed,
              uint64_t total_requests, uint64_t warm_requests)
{
    Admission out;
    out.requests.reserve(static_cast<size_t>(total_requests));
    data::ArrivalProcess arrivals(options.arrival, seed);
    const double budget = options.budget_us * 1e-6;
    size_t begin = 0; // open batch = requests[begin, size())
    uint64_t front = 0;
    double deadline = 0.0;
    const auto close = [&out, &begin](double admit) {
        out.end.push_back(out.requests.size());
        out.admit.push_back(admit);
        begin = out.requests.size();
    };

    for (uint64_t r = 0; r < total_requests; ++r) {
        const double when = arrivals.next();
        // Tie rule: arrival front + 1 precedes an equal deadline, and
        // every later arrival follows it.
        if (out.requests.size() > begin &&
            (deadline < when || (deadline == when && r >= front + 2)))
            close(deadline);

        const bool measured = r >= warm_requests;
        if (r == warm_requests)
            out.first_measured_arrival = when;

        // serve.request.drop: admission-control fault. The documented
        // degradation: this request is counted dropped and excluded
        // from latency/queue accounting; the stream and the run
        // continue.
        bool drop = false;
        try {
            SP_FAULT_POINT("serve.request.drop");
        } catch (const common::fault::FaultInjectedError &) {
            drop = true;
        }
        if (drop) {
            if (measured)
                ++out.dropped;
            continue;
        }

        if (out.requests.size() == begin) {
            front = r;
            deadline = when + budget;
        }
        out.requests.push_back(Pending{when, r});
        const uint64_t queued = out.requests.size() - begin;
        if (measured) {
            out.depth_sum += static_cast<double>(queued);
            ++out.depth_samples;
            out.depth_max = std::max(out.depth_max, queued);
        }
        if (queued >= options.batch_max)
            close(when);
    }
    if (out.requests.size() > begin)
        close(deadline);
    return out;
}

/**
 * Pass 2: each table's GPU tier replays that table's IDs in dispatch
 * order. Tables are independent, so they fan out over the pool, and
 * table t writes only row t of the per-batch hit counts.
 */
std::vector<uint64_t>
replayTiers(const data::TraceDataset &dataset, const ModelConfig &model,
            const ServeOptions &options, uint64_t cached_rows,
            const Admission &admission)
{
    const size_t lookups = model.trace.lookups_per_table;
    const uint64_t trace_batch = model.trace.batch_size;
    const size_t batches = admission.end.size();
    std::vector<uint64_t> hits(model.trace.num_tables * batches, 0);
    common::parallelFor(model.trace.num_tables, [&](size_t t) {
        // Replays table t through `lookup`, true on a GPU-tier hit.
        const auto replay = [&](auto &&lookup) {
            size_t i = 0;
            for (size_t b = 0; b < batches; ++b) {
                uint64_t batch_hits = 0;
                // splint:hot-path-begin(serve-tier-replay)
                for (; i < admission.end[b]; ++i) {
                    const uint64_t index = admission.requests[i].index;
                    const size_t sample =
                        static_cast<size_t>(index % trace_batch);
                    for (const uint64_t id :
                         dataset.batch(index / trace_batch)
                             .ids(t)
                             .subspan(sample * lookups, lookups))
                        batch_hits += lookup(id) ? 1 : 0;
                }
                // splint:hot-path-end
                hits[t * batches + b] = batch_hits;
            }
        };
        if (!options.dynamic_refresh) {
            // Static tier: the hottest `cached_rows` ranks (synthetic
            // IDs are rank-ordered, as in StaticCacheSystem).
            replay([cached_rows](uint64_t id) { return id < cached_rows; });
            return;
        }
        // Slot indices are 32-bit, and 2^32 - 1 is the row index's
        // not-found sentinel.
        fatalIf(cached_rows >= 0xffffffffull,
                "serve: GPU tier of ", cached_rows,
                " rows per table exceeds the 32-bit slot space");
        const auto capacity = static_cast<uint32_t>(cached_rows);
        cache::Policy policy =
            cache::makePolicy(options.policy, capacity,
                              model.trace.seed + 0x5e57e * (t + 1));
        std::visit(
            [&](auto &typed) {
                TierCache tier(capacity, std::move(typed));
                replay([&tier](uint64_t id) { return tier.lookup(id); });
            },
            policy);
    });
    return hits;
}

/** One batch's service time and its CPU and GPU shares. */
struct ServiceTime
{
    double cpu = 0.0;
    double gpu = 0.0;
    double total = 0.0;
};

ServiceTime
serviceTime(const sim::LatencyModel &latency, const ModelConfig &model,
            const ServeOptions &options, uint64_t hits, uint64_t misses,
            uint64_t admitted)
{
    const auto &hw = latency.config();

    // [Query] against the GPU tier, the host parameter server's gather
    // of the missed rows, their upload, and the GPU gather + reduce.
    CacheTierCost tier =
        cacheTierCost(latency, model, hits, misses, admitted);
    const double t_host = tier.host_gather + hw.cpu_serve_overhead;

    // GPU: the dynamic tier writes every missed row back, then the
    // forward pass.
    if (options.dynamic_refresh)
        tier.gpu.sparse_write_bytes +=
            static_cast<double>(misses) * model.rowBytes();
    const double flops = nn::dlrmForwardFlops(
        model.dlrmConfig(), static_cast<size_t>(admitted));
    const double t_gpu = latency.gpuComputeTime(flops) +
                         latency.gpuMemTime(tier.gpu) +
                         hw.gpu_serve_overhead;

    // Predictions back (one float per request).
    const double t_d2h = latency.pcieTime(
        static_cast<double>(admitted) * sizeof(float));

    ServiceTime time;
    time.cpu = t_host;
    time.gpu = tier.query + tier.miss_upload + t_gpu + t_d2h;
    time.total = tier.query + t_host + tier.miss_upload + t_gpu + t_d2h;
    return time;
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
    : System(model, hardware), options_(options)
{
    const std::string problem = options_.validationError();
    fatalIf(!problem.empty(), "serve spec: ", problem);
    cached_rows_ = cachedRows(model_, options_.cache_fraction);
}

RunResult
ServingSystem::simulate(const data::TraceDataset &dataset,
                        const BatchStats &stats,
                        uint64_t iterations, uint64_t warmup) const
{
    checkRun(dataset, stats, iterations, warmup);

    const uint64_t warm_requests = warmup * model_.trace.batch_size;
    const Admission admission = admitRequests(
        options_, model_.trace.seed,
        (warmup + iterations) * model_.trace.batch_size, warm_requests);
    const std::vector<uint64_t> tier_hits =
        replayTiers(dataset, model_, options_, cached_rows_, admission);

    // Pass 3: the single FIFO server takes the batches in order.
    const size_t num_tables = model_.trace.num_tables;
    const size_t num_batches = admission.end.size();
    metrics::PercentileReservoir latencies;
    latencies.reserve(static_cast<size_t>(iterations) *
                      model_.trace.batch_size);
    double server_free = 0.0, wait_sum = 0.0, service_sum = 0.0;
    double cpu_busy = 0.0, gpu_busy = 0.0, last_completion = 0.0;
    uint64_t hits = 0, ids = 0, served = 0, batches = 0;
    size_t i = 0;
    for (size_t b = 0; b < num_batches; ++b) {
        const size_t end = admission.end[b];
        const uint64_t admitted = end - i;
        const uint64_t batch_ids =
            admitted * num_tables * model_.trace.lookups_per_table;
        uint64_t batch_hits = 0;
        for (size_t t = 0; t < num_tables; ++t)
            batch_hits += tier_hits[t * num_batches + b];
        const ServiceTime service =
            serviceTime(latency_, model_, options_, batch_hits,
                        batch_ids - batch_hits, admitted);
        const double start = std::max(admission.admit[b], server_free);
        const double completion = start + service.total;
        server_free = completion;

        // Requests are in index order: the last one decides whether
        // the batch is measured.
        const bool measured =
            admission.requests[end - 1].index >= warm_requests;
        for (; i < end; ++i) {
            const Pending &request = admission.requests[i];
            if (request.index < warm_requests)
                continue;
            latencies.add(completion - request.arrival);
            wait_sum += start - request.arrival;
            service_sum += service.total;
            ++served;
        }
        if (measured) {
            cpu_busy += service.cpu;
            gpu_busy += service.gpu;
            ++batches;
            hits += batch_hits;
            ids += batch_ids;
            last_completion = completion;
        }
    }

    const double span = last_completion - admission.first_measured_arrival;
    RunResult result;
    result.system_name = name();
    result.iterations = iterations;
    result.serving.enabled = true;
    result.serving.requests = served;
    result.serving.dropped = admission.dropped;
    result.serving.batches = batches;
    result.serving.offered_rate = options_.arrival.rate;
    if (served > 0) {
        result.serving.achieved_rate =
            span > 0.0 ? static_cast<double>(served) / span : 0.0;
        result.serving.p50 = latencies.percentile(0.50);
        result.serving.p99 = latencies.percentile(0.99);
        result.serving.p999 = latencies.percentile(0.999);
        result.serving.mean = latencies.mean();
        result.serving.max = latencies.maxValue();
        const double inv_served = 1.0 / static_cast<double>(served);
        result.breakdown.add("request wait", wait_sum * inv_served);
        result.breakdown.add("request service", service_sum * inv_served);
    }
    if (admission.depth_samples > 0) {
        result.serving.mean_queue_depth =
            admission.depth_sum /
            static_cast<double>(admission.depth_samples);
        result.serving.max_queue_depth =
            static_cast<double>(admission.depth_max);
    }
    if (batches > 0)
        result.serving.mean_batch_fill =
            static_cast<double>(served) / static_cast<double>(batches);

    const double inv_iters = 1.0 / static_cast<double>(iterations);
    result.seconds_per_iteration = span > 0.0 ? span * inv_iters : 0.0;
    result.busy.iteration_seconds = result.seconds_per_iteration;
    result.busy.cpu_busy_seconds = cpu_busy * inv_iters;
    result.busy.gpu_busy_seconds = gpu_busy * inv_iters;
    result.hit_rate = hitRate(hits, ids);
    // Each table's cached rows, plus the dynamic tier's Hit-Map.
    const size_t hit_map_bytes =
        options_.dynamic_refresh ? cache::modeledHitMapBytes(cached_rows_)
                                 : 0;
    result.gpu_bytes =
        static_cast<double>(model_.trace.num_tables) *
        (static_cast<double>(cached_rows_) * model_.rowBytes() +
         static_cast<double>(hit_map_bytes));
    return result;
}

} // namespace sp::sys
