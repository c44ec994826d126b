/**
 * @file
 * Shared setup for the figure/table reproduction binaries.
 *
 * Every bench binary regenerates one of the paper's evaluation
 * artifacts at the Section V geometry (8 tables x 10M rows x 128-dim,
 * batch 2048, 20 lookups/table). A Workload wraps a
 * sys::ExperimentRunner on the paper testbed: the trace and the shared
 * per-batch statistics are built once, and any system -- named by a
 * SystemSpec string like "static:cache=0.02" -- can be simulated over
 * them. The dynamic cache systems run `warmup` batches to reach steady
 * state (mirroring the paper's steady-state measurements) and are
 * measured over the following `measure` batches.
 *
 * Iteration counts honour SP_BENCH_WARMUP / SP_BENCH_MEASURE so the
 * whole suite can be sped up or made more precise from the shell, and
 * every driver takes the shared flags (addCommonFlags /
 * applyCommonFlags): --jobs, so every driver exercises the worker
 * pool at a controlled width, and --no-trace-cache, opting out of the
 * content-addressed trace cache (data/trace_store.h) that otherwise
 * lets every driver warm-start from an mmap'd trace published by any
 * earlier run.
 */

#ifndef SP_BENCH_COMMON_WORKLOAD_H
#define SP_BENCH_COMMON_WORKLOAD_H

#include <memory>
#include <string>

#include "common/args.h"
#include "data/dataset.h"
#include "sim/hardware_config.h"
#include "sys/experiment.h"
#include "sys/system_config.h"

namespace sp::bench
{

/** Warm-up batches before measurement (default 5). */
uint64_t warmupIterations();

/** Measured batches (default 10). */
uint64_t measureIterations();

/**
 * Register the shared driver flags: --jobs (worker threads for every
 * parallel site: trace generation, per-table planning, sharded mark
 * passes, pooled sweeps; 0 = all cores, default leaves the pool at
 * ThreadPool::defaultThreads()), --no-trace-cache (regenerate the
 * trace instead of serving it from the content-addressed cache), and
 * --workload (shaping spec or replay=FILE, overlaid on every workload
 * the driver builds -- see data/workload.h).
 */
void addCommonFlags(ArgParser &args);

/**
 * Apply the shared flags: sizes the process-wide pool (call before
 * building any workload), switches the transparent trace cache on
 * unless --no-trace-cache was given, and returns the pool width,
 * which is also the ExperimentOptions::jobs value pooled sweeps
 * should use. Results are bit-identical whatever the width and
 * whether the trace came from the cache -- both only move wall-clock.
 */
uint32_t applyCommonFlags(const ArgParser &args);

/**
 * The whole standard prologue for a driver with no flags of its own:
 * parse argv with just the shared flags, size the pool, and switch
 * the trace cache. Returns false when --help was printed (the caller
 * should exit 0); prints the message and exits 1 on a usage error.
 * Drivers with extra flags compose addCommonFlags/applyCommonFlags
 * instead (see fig13_speedup.cc).
 */
bool parseStandardArgs(int argc, char **argv, const char *description);

/** One locality's trace + statistics at a given model geometry. */
struct Workload
{
    sys::ModelConfig model;
    std::unique_ptr<sys::ExperimentRunner> runner;
    uint64_t warmup = 0;
    uint64_t measure = 0;

    const data::TraceDataset &dataset() const
    {
        return runner->dataset();
    }
    const sys::BatchStats &stats() const { return runner->stats(); }

    /** Simulate one registry system over this workload. */
    sys::RunResult run(const sys::SystemSpec &spec) const
    {
        return runner->run(spec);
    }

    /** Shorthand: run a spec string ("scratchpipe:cache=0.05"). */
    sys::RunResult run(const std::string &spec_text) const
    {
        return runner->run(spec_text);
    }
};

/** Optional overrides for makeWorkload. */
struct WorkloadOptions
{
    /** Geometry override (dimension/lookup/batch sweeps). */
    const sys::ModelConfig *base = nullptr;
    /** Warm-up batches; 0 = the SP_BENCH_WARMUP default. */
    uint64_t warmup = 0;
    /** Measured batches; 0 = the SP_BENCH_MEASURE default. */
    uint64_t measure = 0;
    /** ExperimentOptions::jobs for pooled runAll sweeps; 0 (default)
     *  follows the pool width, i.e. whatever --jobs selected. */
    uint32_t jobs = 0;
};

/**
 * Build a paper-geometry workload for `locality`. Pass `base` to
 * override the geometry (dimension/lookup/batch sweeps).
 */
Workload makeWorkload(data::Locality locality,
                      const sys::ModelConfig *base = nullptr);

/** makeWorkload with explicit overrides (quick modes, pooled sweeps). */
Workload makeWorkload(data::Locality locality,
                      const WorkloadOptions &options);

/** Print the standard bench banner (figure id + paper reference). */
void printBanner(const std::string &title, const std::string &reference);

/** Seconds -> "12.34" milliseconds string. */
std::string ms(double seconds, int precision = 2);

} // namespace sp::bench

#endif // SP_BENCH_COMMON_WORKLOAD_H
