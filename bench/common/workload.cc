#include "common/workload.h"

#include <cstdlib>
#include <iostream>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "data/trace_store.h"
#include "data/workload.h"
#include "metrics/table_printer.h"

namespace sp::bench
{

namespace
{

uint64_t
envOr(const char *name, uint64_t fallback)
{
    const char *value = std::getenv(name);
    if (value == nullptr)
        return fallback;
    const long long parsed = std::atoll(value);
    return parsed > 0 ? static_cast<uint64_t>(parsed) : fallback;
}

/** The --workload spec applyCommonFlags parsed, consumed by every
 *  subsequent makeWorkload in the process (empty = stationary). */
data::WorkloadSpec &
activeWorkload()
{
    static data::WorkloadSpec spec;
    return spec;
}

} // namespace

uint64_t
warmupIterations()
{
    return envOr("SP_BENCH_WARMUP", 5);
}

uint64_t
measureIterations()
{
    return envOr("SP_BENCH_MEASURE", 10);
}

void
addCommonFlags(ArgParser &args)
{
    args.addInt("jobs", 0,
                "worker threads for every parallel site (trace "
                "generation, per-table planning, sharded mark passes, "
                "pooled sweeps); 0 = all cores");
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
    // Bench drivers hit the trace cache transparently; the flag (and
    // SP_TRACE_CACHE=off) opts out. Enable before any workload is
    // built so the very first trace acquisition can be a warm start.
    data::TraceStore::setCacheEnabled(!args.getBool("no-trace-cache"));

    // Parse --workload once; makeWorkload overlays it on every model
    // so the whole figure family runs the shaped (or replayed) stream.
    activeWorkload() = data::WorkloadSpec::parse(
        args.getString("workload"));

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

bool
parseStandardArgs(int argc, char **argv, const char *description)
{
    ArgParser args(description);
    addCommonFlags(args);
    try {
        if (!args.parse(argc, argv)) {
            std::cout << args.usage();
            return false;
        }
        applyCommonFlags(args);
    } catch (const FatalError &error) {
        // A bad flag is a usage error, not a crash: print the message
        // (not an uncaught-exception abort) and exit non-zero.
        std::cerr << error.what() << "\n";
        std::exit(1);
    }
    return true;
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
    // jobs == 0 follows the pool (sized by --jobs in applyCommonFlags),
    // so pooled runAll sweeps honour the flag without every driver
    // threading the width through by hand.
    options.jobs =
        overrides.jobs > 0
            ? overrides.jobs
            : static_cast<uint32_t>(common::ThreadPool::global().size());
    // Overlay the driver-wide --workload spec; geometry overrides from
    // `base` keep their own shaping unless the flag asked for some.
    const data::WorkloadSpec &shaping = activeWorkload();
    if (!shaping.config.stationary())
        workload.model.trace.workload = shaping.config;
    options.replay_path = shaping.replay_path;
    workload.runner = std::make_unique<sys::ExperimentRunner>(
        workload.model, sim::HardwareConfig::paperTestbed(), options);
    return workload;
}

void
printBanner(const std::string &title, const std::string &reference)
{
    std::cout << "\n=== " << title << " ===\n"
              << reference << "\n"
              << "geometry: 8 tables x 10M rows x 128-dim unless noted; "
              << "batch 2048; 20 lookups/table\n"
              << "warmup " << warmupIterations() << " iters, measuring "
              << measureIterations() << " iters\n\n";
}

std::string
ms(double seconds, int precision)
{
    return metrics::TablePrinter::num(seconds * 1e3, precision);
}

} // namespace sp::bench
