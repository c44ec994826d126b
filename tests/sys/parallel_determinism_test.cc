/**
 * @file
 * Determinism guarantees of the parallel simulation engine.
 *
 * Every parallel site (trace generation, per-batch statistics,
 * per-table [Plan] fan-out, serving's per-table tier replay, pooled
 * runAll) must be bit-identical to its serial counterpart: batch k is
 * an independent seeded stream and slot i is written by call i only.
 * These tests pin that contract -- a sweep run with --jobs N must
 * serialise to exactly the same JSON as --jobs 1.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "data/dataset.h"
#include "data/trace_store.h"
#include "data/workload.h"
#include "sys/batch_stats.h"
#include "sys/experiment.h"
#include "sys/registry.h"

namespace sp::sys
{
namespace
{

const sim::HardwareConfig kHw = sim::HardwareConfig::paperTestbed();

ModelConfig
testModel()
{
    ModelConfig model = ModelConfig::functionalScale();
    model.trace.locality = data::Locality::Medium;
    model.trace.seed = 1234;
    return model;
}

TEST(ParallelDeterminism, PooledTraceGenerationIsBitIdentical)
{
    // The dataset constructor fans batch generation out over the
    // global pool; every batch must equal the one a direct (serial)
    // TraceGenerator call produces, stationary and under each
    // workload overlay (drift, churn, flash-crowd burst). Widen the
    // pool so generation crosses real threads even on a single-core
    // host.
    if (common::ThreadPool::global().size() < 4)
        common::ThreadPool::setGlobalThreads(4);
    const data::TraceDataset stationary(testModel().trace, 12);
    for (const char *shaping :
         {"", "drift_amp=0.4,drift_period=4,phase=1",
          "churn_k=1024,churn_period=4",
          "burst_frac=0.3,burst_period=8,burst_len=2,burst_ranks=512"}) {
        ModelConfig model = testModel();
        model.trace.workload = data::WorkloadSpec::parse(shaping).config;
        const data::TraceDataset dataset(model.trace, 12);
        const data::TraceGenerator generator(model.trace);
        bool shaped = false;
        for (uint64_t b = 0; b < dataset.numBatches(); ++b) {
            const std::vector<uint64_t> record = generator.makeRecord(b);
            const data::MiniBatch &got = dataset.batch(b);
            ASSERT_TRUE(got.idsEqual(
                data::MiniBatch::fromRecord(record, model.trace)))
                << shaping << " batch " << b;
            shaped |= !got.idsEqual(stationary.batch(b));
        }
        // Each overlay is live, not a no-op that trivially matches.
        EXPECT_EQ(shaped, *shaping != '\0') << shaping;
    }
}

TEST(ParallelDeterminism, PooledBatchStatsMatchSerialCounts)
{
    const ModelConfig model = testModel();
    const data::TraceDataset dataset(model.trace, 10);
    const BatchStats stats(dataset, 10);
    for (uint64_t b = 0; b < 10; ++b) {
        for (size_t t = 0; t < model.trace.num_tables; ++t) {
            // Serial sort + unique oracle.
            const auto ids = dataset.batch(b).ids(t);
            std::vector<uint64_t> sorted(ids.begin(), ids.end());
            std::sort(sorted.begin(), sorted.end());
            const auto unique = static_cast<size_t>(
                std::unique(sorted.begin(), sorted.end()) -
                sorted.begin());
            ASSERT_EQ(stats.unique(b, t), unique)
                << "batch " << b << " table " << t;
        }
    }
}

std::vector<SystemSpec>
sweepSpecs(const std::string &engine_suffix = "")
{
    // The engine knobs (overlap=, shard=) only exist on the
    // scratchpad systems; the other design points ride along in every
    // sweep so the whole spec list is compared at once.
    return {SystemSpec::parse("hybrid"),
            SystemSpec::parse("static:cache=0.1"),
            SystemSpec::parse("strawman" +
                              (engine_suffix.empty()
                                   ? ""
                                   : ":" + engine_suffix)),
            SystemSpec::parse("scratchpipe" +
                              (engine_suffix.empty()
                                   ? ""
                                   : ":" + engine_suffix)),
            SystemSpec::parse("scratchpipe:policy=lfu,cache=0.2" +
                              (engine_suffix.empty()
                                   ? ""
                                   : "," + engine_suffix)),
            SystemSpec::parse("multigpu")};
}

std::string
sweepJson(uint32_t jobs, const std::string &engine_suffix = "")
{
    ExperimentOptions options;
    options.iterations = 4;
    options.warmup = 2;
    options.jobs = jobs;
    const ExperimentRunner runner(testModel(), kHw, options);
    return toJson(runner.runAll(sweepSpecs(engine_suffix)));
}

TEST(ParallelDeterminism, JobsSweepJsonBitIdenticalToSequential)
{
    // The acceptance bar of the parallel engine: RunResult output is
    // byte-for-byte identical between --jobs 1 and --jobs N.
    const std::string serial = sweepJson(1);
    EXPECT_EQ(serial, sweepJson(2));
    EXPECT_EQ(serial, sweepJson(8));
}

TEST(ParallelDeterminism, EngineModeMatrixBitIdentical)
{
    // The pipelined/sharded planning engine must not change a single
    // byte of output: every combination of {serial, pipelined,
    // sharded, pipelined+sharded} x jobs in {1, 4} serialises to the
    // fully-serial sweep's JSON. Widen the pool so the matrix crosses
    // real threads even on a single-core host.
    if (common::ThreadPool::global().size() < 4)
        common::ThreadPool::setGlobalThreads(4);
    const std::string baseline = sweepJson(1, "overlap=0,shard=1");
    const char *modes[] = {"overlap=0,shard=1", "overlap=1,shard=1",
                           "overlap=0,shard=4", "overlap=1,shard=4"};
    for (const char *mode : modes) {
        for (const uint32_t jobs : {1u, 4u}) {
            EXPECT_EQ(baseline, sweepJson(jobs, mode))
                << "mode=" << mode << " jobs=" << jobs;
        }
    }
}

TEST(ParallelDeterminism, ProbeKernelMatrixBitIdentical)
{
    // The probe= axis joins the engine-mode matrix: the scalar
    // reference and the runtime-dispatched native kernel (AVX2
    // where available, scalar parity otherwise) must serialise to the
    // same bytes at every jobs x shard combination -- including
    // shard=0 (one shard per pool thread), where SIMD probes run
    // concurrently on subranges of one table.
    if (common::ThreadPool::global().size() < 4)
        common::ThreadPool::setGlobalThreads(4);
    const std::string baseline =
        sweepJson(1, "overlap=0,shard=1,probe=scalar");
    for (const char *probe : {"probe=scalar", "probe=native"}) {
        for (const char *engine :
             {"overlap=0,shard=1", "overlap=1,shard=0"}) {
            for (const uint32_t jobs : {1u, 4u}) {
                EXPECT_EQ(baseline,
                          sweepJson(jobs, std::string(engine) + "," +
                                              probe))
                    << "engine=" << engine << " " << probe
                    << " jobs=" << jobs;
            }
        }
    }
}

std::string
shapedSweepJson(uint32_t jobs, const std::string &workload_text,
                const std::string &engine_suffix = "")
{
    ExperimentOptions options;
    options.iterations = 4;
    options.warmup = 2;
    options.jobs = jobs;
    ModelConfig model = testModel();
    model.trace.workload =
        data::WorkloadSpec::parse(workload_text).config;
    const ExperimentRunner runner(model, kHw, options);
    return toJson(runner.runAll(sweepSpecs(engine_suffix)));
}

TEST(ParallelDeterminism, DriftingAlphaSweepBitIdenticalAcrossJobs)
{
    // The workload shaper joins the determinism matrix: a drifting
    // Zipf exponent re-seeds nothing -- batch k's stream is still a
    // pure function of (seed, table, k) -- so jobs and shard width
    // must not move a byte.
    if (common::ThreadPool::global().size() < 4)
        common::ThreadPool::setGlobalThreads(4);
    const std::string spec = "drift_amp=0.4,drift_period=3,phase=2";
    const std::string serial = shapedSweepJson(1, spec);
    EXPECT_EQ(serial, shapedSweepJson(4, spec));
    EXPECT_EQ(serial, shapedSweepJson(4, spec, "overlap=1,shard=4"));
    EXPECT_EQ(serial, shapedSweepJson(4, spec, "probe=native"));
    // And the shaping is live, not a no-op that trivially matches.
    EXPECT_NE(serial, sweepJson(1));
}

TEST(ParallelDeterminism, BurstOverlaySweepBitIdenticalColdAndWarmCache)
{
    // Flash-crowd overlay x trace cache: the cold run generates and
    // publishes, the warm run mmaps the published file; both must
    // serialise to the bytes of a cache-less serial sweep, at jobs 1
    // and 4. This is the end-to-end proof that the new workload
    // fields reached the fingerprint (a stale stationary entry would
    // alias this config and change every number).
    if (common::ThreadPool::global().size() < 4)
        common::ThreadPool::setGlobalThreads(4);
    const std::string spec =
        "burst_frac=0.5,burst_period=4,burst_len=2,burst_ranks=64,"
        "churn_k=32,churn_period=2";
    const std::string baseline = shapedSweepJson(1, spec);

    namespace fs = std::filesystem;
    const fs::path dir = fs::path(::testing::TempDir()) /
                         "sp_parallel_determinism_cache";
    fs::remove_all(dir);
    ::setenv("SP_TRACE_CACHE", dir.string().c_str(), 1);
    data::TraceStore::setCacheEnabled(true);
    const std::string cold1 = shapedSweepJson(1, spec);
    const std::string warm1 = shapedSweepJson(1, spec);
    const std::string warm4 = shapedSweepJson(4, spec);
    data::TraceStore::setCacheEnabled(false);
    ::unsetenv("SP_TRACE_CACHE");
    fs::remove_all(dir);

    EXPECT_EQ(baseline, cold1);
    EXPECT_EQ(baseline, warm1);
    EXPECT_EQ(baseline, warm4);
}

TEST(ParallelDeterminism, ServingSweepJsonBitIdenticalAcrossJobs)
{
    // The serving system joins the determinism matrix: its SLO
    // percentiles (p50/p99/p999), queue depths and every other
    // serving field must be byte-for-byte identical between --jobs 1
    // and --jobs 4 for a fixed seed -- admission, the arrival stream
    // and the dynamic GPU tier are pure functions of (spec, model,
    // seed), never of scheduling.
    if (common::ThreadPool::global().size() < 4)
        common::ThreadPool::setGlobalThreads(4);
    const auto servingSweepJson = [](uint32_t jobs) {
        ExperimentOptions options;
        options.iterations = 4;
        options.warmup = 2;
        options.jobs = jobs;
        const ExperimentRunner runner(testModel(), kHw, options);
        return toJson(runner.runAll(
            {SystemSpec::parse("serve:rate=400000"),
             SystemSpec::parse(
                 "serve:rate=400000,refresh=lru,batch_max=16,"
                 "budget_us=250"),
             SystemSpec::parse(
                 "serve:arrival=bursty,rate=250000,burst_x=4,"
                 "burst_on_us=250,burst_off_us=2000,refresh=lfu"),
             SystemSpec::parse("static:cache=0.1")}));
    };
    const std::string serial = servingSweepJson(1);
    EXPECT_NE(serial.find("\"p999\""), std::string::npos);
    EXPECT_EQ(serial, servingSweepJson(4));
}

TEST(ParallelDeterminism, ServingTierReplayBitIdenticalAcrossPoolWidths)
{
    // jobs only caps runAll's fan-out; serve replays its per-table GPU
    // tiers on the global pool. With jobs 1 on both sides, pool width
    // 1 replays the tables serially and width 4 concurrently, and the
    // JSON must not tell them apart.
    const size_t width = common::ThreadPool::global().size();
    const auto servingJson = [](size_t threads) {
        common::ThreadPool::setGlobalThreads(threads);
        ExperimentOptions options;
        options.iterations = 4;
        options.warmup = 2;
        options.jobs = 1;
        const ExperimentRunner runner(testModel(), kHw, options);
        return toJson(runner.runAll(
            {SystemSpec::parse("serve:rate=400000,refresh=lru"),
             SystemSpec::parse("serve:rate=400000,refresh=lfu"),
             SystemSpec::parse("serve:rate=400000,refresh=random"),
             SystemSpec::parse(
                 "serve:arrival=bursty,rate=250000,burst_x=4,"
                 "burst_on_us=250,burst_off_us=2000,refresh=lru")}));
    };
    const std::string serial = servingJson(1);
    const std::string pooled = servingJson(4);
    common::ThreadPool::setGlobalThreads(width);
    EXPECT_EQ(serial, pooled);
}

TEST(ParallelDeterminism, AutoShardWidthBitIdentical)
{
    // shard=0 resolves to the pool width on whatever host runs the
    // test; output must still match the serial sweep exactly.
    EXPECT_EQ(sweepJson(1, "overlap=0,shard=1"),
              sweepJson(4, "overlap=1,shard=0"));
}

TEST(ParallelDeterminism, RunAllBadSpecFailsFastBeforeTheFanOut)
{
    ExperimentOptions options;
    options.iterations = 2;
    options.jobs = 4;
    const ExperimentRunner runner(testModel(), kHw, options);
    // hybrid has no cache; validation throws before any pool work.
    std::vector<SystemSpec> specs = sweepSpecs();
    specs[0].cache_fraction = 0.5;
    EXPECT_THROW(runner.runAll(specs), FatalError);
}

TEST(ParallelDeterminism, RunAllErrorsSurfaceFromTheFanOut)
{
    ExperimentOptions options;
    options.iterations = 2;
    options.jobs = 4;
    const ExperimentRunner runner(testModel(), kHw, options);
    // This spec passes validation but fatals mid-simulate, inside the
    // fan-out: one slot with the capacity bound disabled means the
    // first batch has no hold-mask-eligible victim (paper §VI-D).
    // Sweep-layer failure isolation: the bad spec is recorded in its
    // result slot, the good spec still completes, order preserved.
    const std::vector<SystemSpec> specs = {
        SystemSpec::parse("hybrid"),
        SystemSpec::parse("scratchpipe:cache=0.0000001,bound=0")};
    const std::vector<RunResult> results = runner.runAll(specs);
    ASSERT_EQ(results.size(), 2u);
    EXPECT_FALSE(results[0].failed());
    EXPECT_GT(results[0].iterations, 0u);
    EXPECT_TRUE(results[1].failed());
    EXPECT_FALSE(results[1].error.empty());
    EXPECT_EQ(sweepExitCode(results), 3);

    // fail_fast restores abort-on-first-error for debugging runs.
    ExperimentOptions strict = options;
    strict.fail_fast = true;
    const ExperimentRunner strict_runner(testModel(), kHw, strict);
    EXPECT_THROW(strict_runner.runAll(specs), FatalError);
}

TEST(ParallelDeterminism, EffectiveJobsResolvesZeroToDefault)
{
    ExperimentOptions options;
    options.jobs = 0;
    const ExperimentRunner runner(testModel(), kHw, options);
    EXPECT_EQ(runner.effectiveJobs(),
              common::ThreadPool::defaultThreads());
    ExperimentOptions pinned;
    pinned.jobs = 3;
    const ExperimentRunner runner3(testModel(), kHw, pinned);
    EXPECT_EQ(runner3.effectiveJobs(), 3u);
}

} // namespace
} // namespace sp::sys
