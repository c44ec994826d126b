#include "common/workload.h"

#include <cstdlib>

#include "common/spec_number.h"
#include "common/thread_pool.h"
#include "data/trace_store.h"
#include "data/workload.h"

namespace sp::bench
{

namespace
{

/** What applyCommonFlags read, consumed by every later makeWorkload
 *  in the process. */
struct Settings
{
    /** --workload (empty = stationary). */
    data::WorkloadSpec workload;
    uint64_t warmup = 5;
    uint64_t measure = 10;
};

Settings &
settings()
{
    static Settings value;
    return value;
}

/** An SP_BENCH_* count: decimal digits only, like SP_JOBS; unset or 0
 *  keeps `fallback`. */
uint64_t
envCount(const char *name, uint64_t fallback)
{
    const char *text = std::getenv(name);
    if (text == nullptr)
        return fallback;
    uint64_t count = 0;
    common::OptionValue(count).read("environment", name, text);
    return count > 0 ? count : fallback;
}

} // namespace

uint64_t
warmupIterations()
{
    return settings().warmup;
}

uint64_t
measureIterations()
{
    return settings().measure;
}

void
addCommonFlags(ArgParser &args)
{
    args.addInt("jobs", 0,
                "worker threads for every parallel site (trace "
                "generation, per-table planning, pooled sweeps); "
                "0 = all cores");
    args.addBool("no-trace-cache",
                 "regenerate the trace instead of serving it from the "
                 "content-addressed cache (SP_TRACE_CACHE, default "
                 ".sp-trace-cache/)");
    args.addString("workload", "",
                   "workload shaping spec applied to every workload the "
                   "driver builds, e.g. 'drift_amp=0.4,drift_period=8' "
                   "or 'replay=FILE' (see data/workload.h)");
}

uint32_t
applyCommonFlags(const ArgParser &args)
{
    Settings &active = settings();
    active.warmup = envCount("SP_BENCH_WARMUP", active.warmup);
    active.measure = envCount("SP_BENCH_MEASURE", active.measure);

    // The driver hits the trace cache transparently; the flag (and
    // SP_TRACE_CACHE=off) opts out. Enable before any workload is
    // built so the very first trace acquisition can be a warm start.
    data::TraceStore::setCacheEnabled(!args.getBool("no-trace-cache"));

    // Parse --workload once; makeWorkload overlays it on every model
    // so the whole figure family runs the shaped (or replayed) stream.
    active.workload = data::WorkloadSpec::parse(args.getString("workload"));

    const uint32_t jobs = parseJobsArg(args);
    if (args.wasSet("jobs")) {
        // Size the pool before any workload exists so every parallel
        // site in this process runs at the requested width.
        common::ThreadPool::setGlobalThreads(
            jobs > 0 ? static_cast<size_t>(jobs)
                     : common::ThreadPool::defaultThreads());
    }
    return static_cast<uint32_t>(common::ThreadPool::global().size());
}

Workload
makeWorkload(data::Locality locality, const sys::ModelConfig *base)
{
    WorkloadOptions options;
    options.base = base;
    return makeWorkload(locality, options);
}

Workload
makeWorkload(data::Locality locality, const WorkloadOptions &overrides)
{
    Workload workload;
    workload.model = overrides.base != nullptr
                         ? *overrides.base
                         : sys::ModelConfig::paperDefault();
    workload.model.trace.locality = locality;
    workload.warmup =
        overrides.warmup > 0 ? overrides.warmup : warmupIterations();
    workload.measure =
        overrides.measure > 0 ? overrides.measure : measureIterations();

    sys::ExperimentOptions options;
    options.iterations = workload.measure;
    options.warmup = workload.warmup;
    // Follow the pool (sized by --jobs in applyCommonFlags), so pooled
    // runAll sweeps honour the flag.
    options.jobs =
        static_cast<uint32_t>(common::ThreadPool::global().size());
    // Overlay the driver-wide --workload spec; geometry overrides from
    // `base` keep their own shaping unless the flag asked for some.
    const data::WorkloadSpec &shaping = settings().workload;
    if (!shaping.config.stationary())
        workload.model.trace.workload = shaping.config;
    options.replay_path = shaping.replay_path;
    workload.runner = std::make_unique<sys::ExperimentRunner>(
        workload.model, sim::HardwareConfig::paperTestbed(), options);
    return workload;
}

} // namespace sp::bench
