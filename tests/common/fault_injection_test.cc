/**
 * @file
 * Chaos harness for the deterministic fault-injection engine
 * (common/fault.h): schedule grammar, firing semantics, replayable
 * probabilistic schedules, and -- the point of the whole engine -- a
 * fault MATRIX that walks every registered site, injects it, and
 * proves the documented degradation: no crash, and for recoverable
 * faults results identical to a clean run.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/fault.h"
#include "common/logging.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "data/trace_store.h"
#include "sim/hardware_config.h"
#include "sys/experiment.h"

namespace sp::common::fault
{
namespace
{

namespace fs = std::filesystem;

/** Arms a schedule for one scope; always disarms on the way out so a
 *  failing assertion cannot leak faults into unrelated tests. */
class FaultGuard
{
  public:
    explicit FaultGuard(const std::string &spec) { configure(spec); }
    ~FaultGuard() { clear(); }
    FaultGuard(const FaultGuard &) = delete;
    FaultGuard &operator=(const FaultGuard &) = delete;
};

/** Hit `site` `hits` times; returns the 0-based hit indices that
 *  fired. */
std::vector<int>
firedHits(const char *site, int hits)
{
    std::vector<int> fired;
    for (int h = 0; h < hits; ++h) {
        try {
            SP_FAULT_POINT(site);
        } catch (const FaultInjectedError &) {
            fired.push_back(h);
        }
    }
    return fired;
}

TEST(FaultInjection, DisarmedByDefault)
{
    clear();
    EXPECT_FALSE(armed());
    EXPECT_TRUE(schedules().empty());
    EXPECT_EQ(describe(), "faults: disarmed");
    // A disarmed site is free: the macro must not even count hits.
    SP_FAULT_POINT("trace_store.load");
    EXPECT_EQ(hitCount("trace_store.load"), 0u);
}

TEST(FaultInjection, ConfigureParsesTheFullGrammar)
{
    FaultGuard guard(
        " trace_store.load ; dataset.save.write:after=2 ;"
        "trace_store.publish.rename:after=1,every=3;"
        "dataset.open.mmap:p=0.25,seed=42");
    EXPECT_TRUE(armed());
    const std::vector<Schedule> parsed = schedules();
    ASSERT_EQ(parsed.size(), 4u);
    EXPECT_EQ(parsed[0].site, "trace_store.load");
    EXPECT_EQ(parsed[0].after, 0u);
    EXPECT_EQ(parsed[0].every, 0u);
    EXPECT_LT(parsed[0].probability, 0.0);
    EXPECT_EQ(parsed[1].site, "dataset.save.write");
    EXPECT_EQ(parsed[1].after, 2u);
    EXPECT_EQ(parsed[2].site, "trace_store.publish.rename");
    EXPECT_EQ(parsed[2].after, 1u);
    EXPECT_EQ(parsed[2].every, 3u);
    EXPECT_EQ(parsed[3].site, "dataset.open.mmap");
    EXPECT_DOUBLE_EQ(parsed[3].probability, 0.25);
    EXPECT_EQ(parsed[3].seed, 42u);
    // describe() records the seed so the run can be replayed exactly.
    EXPECT_NE(describe().find("seed=42"), std::string::npos);
}

TEST(FaultInjection, MalformedSpecsDieLoudly)
{
    EXPECT_THROW(configure("no.such.site"), FatalError);
    EXPECT_THROW(configure("trace_store.load:after"), FatalError);
    EXPECT_THROW(configure("trace_store.load:after=-1"), FatalError);
    EXPECT_THROW(configure("trace_store.load:after=x"), FatalError);
    EXPECT_THROW(configure("trace_store.load:every=0"), FatalError);
    EXPECT_THROW(configure("trace_store.load:p=1.5"), FatalError);
    EXPECT_THROW(configure("trace_store.load:every=2,p=0.5"),
                 FatalError);
    EXPECT_THROW(configure("trace_store.load:bogus=1"), FatalError);
    // The shared option grammar: finite decimals and digit-only
    // integers, no blanks inside key=value, each key once.
    for (const char *spec :
         {"trace_store.load:p=nan", "trace_store.load:p=0x1p-1",
          "trace_store.load:after=+0", "trace_store.load:after= 0",
          "trace_store.load:after=0,after=5"})
        EXPECT_THROW(configure(spec), FatalError) << spec;
    // The unknown-site message must list the registry (typo rescue).
    try {
        configure("no.such.site");
        FAIL() << "unknown site accepted";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("trace_store.publish"),
                  std::string::npos);
    }
    // A failed configure leaves the engine disarmed, not half-armed.
    EXPECT_FALSE(armed());
    clear();
}

TEST(FaultInjection, DefaultScheduleFiresOnceOnTheFirstHit)
{
    FaultGuard guard("trace_store.load");
    EXPECT_EQ(firedHits("trace_store.load", 5),
              (std::vector<int>{0}));
    EXPECT_EQ(hitCount("trace_store.load"), 5u);
    EXPECT_EQ(firedCount("trace_store.load"), 1u);
}

TEST(FaultInjection, AfterDelaysTheSingleShot)
{
    FaultGuard guard("trace_store.load:after=3");
    EXPECT_EQ(firedHits("trace_store.load", 6),
              (std::vector<int>{3}));
}

TEST(FaultInjection, EveryFiresPeriodicallyAfterTheSkip)
{
    FaultGuard guard("trace_store.load:after=1,every=3");
    // Hits (0-based): skip 0; then 1, 4, 7 fire.
    EXPECT_EQ(firedHits("trace_store.load", 9),
              (std::vector<int>{1, 4, 7}));
    EXPECT_EQ(firedCount("trace_store.load"), 3u);
}

TEST(FaultInjection, ProbabilisticScheduleReplaysExactlyFromItsSeed)
{
    std::vector<int> first;
    {
        FaultGuard guard("trace_store.load:p=0.5,seed=7");
        first = firedHits("trace_store.load", 64);
    }
    // Bernoulli(0.5) over 64 draws: some fire, some do not.
    EXPECT_GT(first.size(), 0u);
    EXPECT_LT(first.size(), 64u);
    // Reconfiguring with the same seed replays the exact pattern --
    // this is what makes a probabilistic chaos run debuggable.
    {
        FaultGuard guard("trace_store.load:p=0.5,seed=7");
        EXPECT_EQ(firedHits("trace_store.load", 64), first);
    }
}

TEST(FaultInjection, UnregisteredSiteIsAProgrammerError)
{
    FaultGuard guard("trace_store.load");
    EXPECT_THROW(checkpoint("no.such.site"), PanicError);
}

TEST(FaultInjection, ClearDisarmsAndResetsCounters)
{
    configure("trace_store.load:every=1");
    (void)firedHits("trace_store.load", 3);
    EXPECT_EQ(hitCount("trace_store.load"), 3u);
    clear();
    EXPECT_FALSE(armed());
    EXPECT_EQ(hitCount("trace_store.load"), 0u);
    EXPECT_EQ(firedCount("trace_store.load"), 0u);
}

TEST(FaultInjection, ErrorCarriesTheTaxonomyAndTheSite)
{
    FaultGuard guard("trace_store.load");
    try {
        SP_FAULT_POINT("trace_store.load");
        FAIL() << "armed site did not fire";
    } catch (const FaultInjectedError &e) {
        EXPECT_EQ(e.site(), "trace_store.load");
        EXPECT_EQ(e.status().code(), ErrorCode::FaultInjected);
        // And it is catchable as StatusError / FatalError, so it
        // travels every real environmental-recovery path.
        EXPECT_NE(std::string(e.what()).find("trace_store.load"),
                  std::string::npos);
    }
}

TEST(FaultInjection, RegistryDocumentsEveryDegradation)
{
    for (const SiteInfo &info : sites()) {
        EXPECT_NE(info.name, nullptr);
        ASSERT_NE(info.degradation, nullptr);
        EXPECT_GT(std::string(info.degradation).size(), 10u)
            << info.name << " has no documented degradation";
    }
}

// ---- The fault matrix ----------------------------------------------
//
// One scenario per registered site. Each arms the site, drives the
// subsystem that owns it, and asserts the degradation documented in
// fault::sites(): recoverable store faults must yield *identical*
// data to a clean run with no temp-file litter; isolation faults must
// surface exactly once through their documented channel. The matrix
// test itself walks the registry so a newly added site without a
// scenario fails loudly here.

data::TraceConfig
matrixConfig()
{
    data::TraceConfig config;
    config.num_tables = 2;
    config.rows_per_table = 300;
    config.lookups_per_table = 3;
    config.batch_size = 8;
    config.locality = data::Locality::Medium;
    config.seed = 77;
    config.dense_features = 4;
    return config;
}

/** Fresh cache directory per scenario, removed on destruction. */
class TempStore
{
  public:
    explicit TempStore(const std::string &name)
        : dir_(fs::path(::testing::TempDir()) /
               ("sp_fault_matrix_" + name))
    {
        fs::remove_all(dir_);
        store_ = std::make_unique<data::TraceStore>(
            data::TraceStore::Options{.directory = dir_.string()});
    }
    ~TempStore() { fs::remove_all(dir_); }

    const data::TraceStore &operator*() const { return *store_; }
    const data::TraceStore *operator->() const { return store_.get(); }
    const fs::path &dir() const { return dir_; }

    size_t
    fileCount() const
    {
        if (!fs::exists(dir_))
            return 0;
        size_t files = 0;
        for (const auto &entry : fs::directory_iterator(dir_)) {
            (void)entry;
            ++files;
        }
        return files;
    }

  private:
    fs::path dir_;
    std::unique_ptr<data::TraceStore> store_;
};

void
expectIdenticalData(const data::TraceDataset &got,
                    const data::TraceDataset &want)
{
    ASSERT_EQ(got.numBatches(), want.numBatches());
    for (uint64_t b = 0; b < got.numBatches(); ++b)
        EXPECT_TRUE(got.batch(b).idsEqual(want.batch(b)))
            << "batch " << b;
}

constexpr uint64_t kBatches = 4;

/** Recoverable publish-path fault: the cold acquire degrades to
 *  uncached (classified status, no temp litter) with identical data,
 *  and the next clean acquire heals the cache. */
void
publishFaultScenario(const std::string &site, bool expect_published)
{
    const data::TraceConfig config = matrixConfig();
    const data::TraceDataset want(config, kBatches);
    TempStore store("publish_" + site);
    {
        FaultGuard guard(site + ":every=1");
        data::TraceStore::AcquireInfo info;
        const data::TraceDataset got =
            store->acquire(config, kBatches, &info);
        expectIdenticalData(got, want);
        EXPECT_GT(firedCount(site), 0u);
        if (expect_published)
            return; // rename retry absorbed the fault; cache is warm
        EXPECT_FALSE(info.published);
        EXPECT_EQ(info.publish_status.code(),
                  ErrorCode::FaultInjected);
        // Every failure branch must unlink its temp file.
        EXPECT_EQ(store.fileCount(), 0u);
    }
    // Disarmed, the same store heals: publish succeeds, warm hit
    // serves identical data.
    data::TraceStore::AcquireInfo info;
    const data::TraceDataset clean =
        store->acquire(config, kBatches, &info);
    EXPECT_TRUE(info.published);
    expectIdenticalData(clean, want);
    const data::TraceDataset warm =
        store->acquire(config, kBatches, &info);
    EXPECT_TRUE(info.cache_hit);
    expectIdenticalData(warm, want);
}

/** Recoverable load-path fault: a warm entry reads as a classified
 *  miss and the trace regenerates with identical data. */
void
loadFaultScenario(const std::string &site)
{
    const data::TraceConfig config = matrixConfig();
    const data::TraceDataset want(config, kBatches);
    TempStore store("load_" + site);
    store->acquire(config, kBatches); // prewarm, disarmed
    FaultGuard guard(site + ":every=1");
    data::TraceStore::AcquireInfo info;
    const data::TraceDataset got =
        store->acquire(config, kBatches, &info);
    EXPECT_GT(firedCount(site), 0u);
    EXPECT_FALSE(info.cache_hit);
    EXPECT_EQ(info.load_status.code(), ErrorCode::FaultInjected);
    expectIdenticalData(got, want);
}

/** Replay: an armed open surfaces from ExperimentRunner's constructor
 *  as a classified StatusError (spsim's usage-error path, never
 *  a partial stream); disarmed, the runner replays data identical to
 *  the recorded dataset. */
void
replayOpenScenario()
{
    const data::TraceDataset want(matrixConfig(), kBatches);
    const fs::path path =
        fs::path(::testing::TempDir()) / "sp_fault_matrix_replay.trace";
    ASSERT_TRUE(want.saveTo(path.string()).ok());
    const sys::ModelConfig model = sys::ModelConfig::functionalScale();
    const auto hw = sim::HardwareConfig::paperTestbed();
    sys::ExperimentOptions options;
    options.iterations = 1;
    options.warmup = 1; // + 2 look-ahead batches = kBatches
    options.replay_path = path.string();
    {
        FaultGuard guard("dataset.replay.open:every=1");
        try {
            const sys::ExperimentRunner runner(model, hw, options);
            ADD_FAILURE() << "armed replay open did not throw";
        } catch (const StatusError &error) {
            EXPECT_EQ(error.status().code(), ErrorCode::FaultInjected);
        }
        EXPECT_GT(firedCount("dataset.replay.open"), 0u);
    }
    const sys::ExperimentRunner runner(model, hw, options);
    expectIdenticalData(runner.dataset(), want);
    fs::remove(path);
}

/** Sweep isolation: the faulted spec records its error, the rest of
 *  the sweep completes, and the exit code says "partial". */
void
experimentRunScenario()
{
    FaultGuard guard("experiment.run:after=0");
    sys::ModelConfig model = sys::ModelConfig::functionalScale();
    model.trace.locality = data::Locality::Medium;
    model.trace.seed = 4321;
    sys::ExperimentOptions options;
    options.iterations = 2;
    options.jobs = 1;
    const sys::ExperimentRunner runner(
        model, sim::HardwareConfig::paperTestbed(), options);
    const std::vector<sys::SystemSpec> specs = {
        sys::SystemSpec::parse("hybrid"),
        sys::SystemSpec::parse("static:cache=0.1")};
    const std::vector<sys::RunResult> results = runner.runAll(specs);
    ASSERT_EQ(results.size(), 2u);
    EXPECT_TRUE(results[0].failed());
    EXPECT_NE(results[0].error.find("experiment.run"),
              std::string::npos);
    EXPECT_FALSE(results[1].failed());
    EXPECT_GT(results[1].iterations, 0u);
    EXPECT_EQ(sys::sweepExitCode(results), 3);
}

/** Serving degradation: armed, every third arriving request is
 *  dropped and excluded from latency/queue accounting; the stream
 *  continues and the run completes with drops reported. Disarmed,
 *  the same spec serves every request. */
void
servingDropScenario()
{
    sys::ModelConfig model = sys::ModelConfig::functionalScale();
    model.trace.locality = data::Locality::Medium;
    model.trace.seed = 4321;
    sys::ExperimentOptions options;
    options.iterations = 4;
    options.warmup = 1;
    options.jobs = 1;
    const sys::ExperimentRunner runner(
        model, sim::HardwareConfig::paperTestbed(), options);
    const std::vector<sys::SystemSpec> specs = {
        sys::SystemSpec::parse("serve:rate=500000,batch_max=8")};
    const uint64_t measured =
        options.iterations * model.trace.batch_size;
    {
        FaultGuard guard("serve.request.drop:every=3");
        const std::vector<sys::RunResult> results =
            runner.runAll(specs);
        ASSERT_EQ(results.size(), 1u);
        EXPECT_FALSE(results[0].failed()) << results[0].error;
        EXPECT_GT(firedCount("serve.request.drop"), 0u);
        EXPECT_GT(results[0].serving.dropped, 0u);
        // Every measured request is either served or dropped.
        EXPECT_EQ(results[0].serving.requests +
                      results[0].serving.dropped,
                  measured);
        EXPECT_GT(results[0].serving.requests, 0u);
    }
    const std::vector<sys::RunResult> clean = runner.runAll(specs);
    ASSERT_EQ(clean.size(), 1u);
    EXPECT_FALSE(clean[0].failed()) << clean[0].error;
    EXPECT_EQ(clean[0].serving.dropped, 0u);
    EXPECT_EQ(clean[0].serving.requests, measured);
}

/** Pool isolation: the injected task fault surfaces exactly once on
 *  the documented channel (the parallelFor join). */
void
threadPoolTaskScenario()
{
    {
        FaultGuard guard("thread_pool.task:after=0");
        ThreadPool pool(2);
        std::atomic<size_t> ran{0};
        const auto count = [&ran](size_t) { ++ran; };
        EXPECT_THROW(pool.parallelFor(8, count), FaultInjectedError);
        EXPECT_EQ(firedCount("thread_pool.task"), 1u);
        // The same pool still completes a following fan-out.
        ran = 0;
        pool.parallelFor(8, count);
        EXPECT_EQ(ran.load(), 8u);
    }
    {
        FaultGuard guard("thread_pool.task:after=1");
        ThreadPool pool(1); // serial fast path: caller is the join
        EXPECT_THROW(
            pool.parallelFor(4, [](size_t) {}),
            FaultInjectedError);
    }
}

TEST(FaultMatrix, EveryRegisteredSiteDegradesAsDocumented)
{
    clear();
    using Scenario = void (*)();
    const std::map<std::string, Scenario> scenarios = {
        {"dataset.open.mmap",
         [] { loadFaultScenario("dataset.open.mmap"); }},
        {"dataset.replay.open", replayOpenScenario},
        {"dataset.save.write",
         [] { publishFaultScenario("dataset.save.write", false); }},
        {"experiment.run", experimentRunScenario},
        {"serve.request.drop", servingDropScenario},
        {"thread_pool.task", threadPoolTaskScenario},
        {"trace_store.load",
         [] { loadFaultScenario("trace_store.load"); }},
        {"trace_store.publish.rename",
         [] {
             // Transient: a single injected rename failure is
             // absorbed by the bounded retry and still publishes.
             const data::TraceConfig config = matrixConfig();
             TempStore store("rename_retry");
             FaultGuard guard("trace_store.publish.rename:after=0");
             data::TraceStore::AcquireInfo info;
             const data::TraceDataset got =
                 store->acquire(config, kBatches, &info);
             EXPECT_EQ(firedCount("trace_store.publish.rename"), 1u);
             EXPECT_TRUE(info.published);
             expectIdenticalData(
                 got, data::TraceDataset(config, kBatches));
             EXPECT_EQ(store.fileCount(), 1u);
             clear();
             // Persistent: every retry fails; degrade uncached.
             publishFaultScenario("trace_store.publish.rename",
                                  false);
         }},
        {"trace_store.publish.save",
         [] { publishFaultScenario("trace_store.publish.save", false); }},
    };
    for (const SiteInfo &info : sites()) {
        SCOPED_TRACE(info.name);
        const auto it = scenarios.find(info.name);
        ASSERT_NE(it, scenarios.end())
            << "site '" << info.name
            << "' has no fault-matrix scenario; every registered "
               "site must prove its documented degradation here";
        it->second();
        clear();
    }
    // And the inverse: no scenario for a site that no longer exists.
    EXPECT_EQ(scenarios.size(), sites().size());
}

TEST(FaultMatrix, RecoverableStoreFaultsKeepSweepJsonByteIdentical)
{
    // The end-to-end determinism claim: a sweep whose trace cache
    // fails (disk full during publish, corrupt warm entry) emits
    // byte-for-byte the JSON of a clean sweep -- degradation changes
    // only *where* the trace comes from, never the simulated result.
    const fs::path dir =
        fs::path(::testing::TempDir()) / "sp_fault_matrix_sweep";
    fs::remove_all(dir);
    ::setenv("SP_TRACE_CACHE", dir.string().c_str(), 1);
    data::TraceStore::setCacheEnabled(true);

    sys::ModelConfig model = sys::ModelConfig::functionalScale();
    model.trace.locality = data::Locality::Medium;
    model.trace.seed = 4321;
    sys::ExperimentOptions options;
    options.iterations = 2;
    options.jobs = 1;
    const auto hw = sim::HardwareConfig::paperTestbed();
    const auto sweep = [&] {
        const sys::ExperimentRunner runner(model, hw, options);
        return sys::toJson(runner.runAll(
            {sys::SystemSpec::parse("hybrid"),
             sys::SystemSpec::parse("static:cache=0.1")}));
    };

    const std::string clean = sweep(); // also leaves a warm entry
    struct SweepFault
    {
        const char *spec; //!< fault to arm for one whole sweep
        bool cold;        //!< publish faults need an empty cache
    };
    for (const SweepFault fault :
         {SweepFault{"trace_store.load:every=1", false},
          SweepFault{"trace_store.publish.save:every=1", true},
          SweepFault{"dataset.save.write:every=1", true}}) {
        SCOPED_TRACE(fault.spec);
        if (fault.cold)
            fs::remove_all(dir);
        FaultGuard guard(fault.spec);
        EXPECT_EQ(sweep(), clean);
        EXPECT_GT(firedCount(schedules()[0].site), 0u)
            << "scenario never reached its fault site";
    }

    data::TraceStore::setCacheEnabled(false);
    ::unsetenv("SP_TRACE_CACHE");
    fs::remove_all(dir);
}

} // namespace
} // namespace sp::common::fault
