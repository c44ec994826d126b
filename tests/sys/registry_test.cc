/**
 * @file
 * Tests for the SystemSpec / Registry / ExperimentRunner API.
 *
 * Covers the spec grammar, registry round-trips (every registered
 * system builds and simulates), bit-exact parity between the
 * ExperimentRunner convenience path and direct Registry::build +
 * simulate, the cache-fraction validation that replaces the old
 * silent-ignore behaviour, and the JSON emission consumed by spsim
 * --format json.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "sys/experiment.h"
#include "sys/registry.h"

namespace sp::sys
{
namespace
{

const sim::HardwareConfig kHw = sim::HardwareConfig::paperTestbed();

ModelConfig
smallModel()
{
    ModelConfig model = ModelConfig::functionalScale();
    model.trace.locality = data::Locality::Medium;
    model.trace.seed = 99;
    return model;
}

/** Minimal JSON syntax checker: strings (with escapes), numbers,
 *  literals, objects, arrays. Returns false on any syntax error. */
bool
validJson(const std::string &text)
{
    size_t i = 0;
    const auto skipSpace = [&] {
        while (i < text.size() && std::isspace(
                                      static_cast<unsigned char>(text[i])))
            ++i;
    };
    std::function<bool()> value = [&]() -> bool {
        skipSpace();
        if (i >= text.size())
            return false;
        const char c = text[i];
        if (c == '{' || c == '[') {
            const char close = c == '{' ? '}' : ']';
            ++i;
            skipSpace();
            if (i < text.size() && text[i] == close) {
                ++i;
                return true;
            }
            while (true) {
                if (c == '{') {
                    skipSpace();
                    if (i >= text.size() || text[i] != '"' || !value())
                        return false;
                    skipSpace();
                    if (i >= text.size() || text[i] != ':')
                        return false;
                    ++i;
                }
                if (!value())
                    return false;
                skipSpace();
                if (i < text.size() && text[i] == ',') {
                    ++i;
                    continue;
                }
                break;
            }
            skipSpace();
            if (i >= text.size() || text[i] != close)
                return false;
            ++i;
            return true;
        }
        if (c == '"') {
            ++i;
            while (i < text.size() && text[i] != '"') {
                if (text[i] == '\\')
                    ++i;
                ++i;
            }
            if (i >= text.size())
                return false;
            ++i;
            return true;
        }
        if (text.compare(i, 4, "true") == 0 ||
            text.compare(i, 4, "null") == 0) {
            i += 4;
            return true;
        }
        if (text.compare(i, 5, "false") == 0) {
            i += 5;
            return true;
        }
        const size_t start = i;
        while (i < text.size() &&
               (std::isdigit(static_cast<unsigned char>(text[i])) ||
                text[i] == '-' || text[i] == '+' || text[i] == '.' ||
                text[i] == 'e' || text[i] == 'E'))
            ++i;
        return i > start;
    };
    if (!value())
        return false;
    skipSpace();
    return i == text.size();
}

TEST(SystemSpec, ParsesBareName)
{
    const SystemSpec spec = SystemSpec::parse("hybrid");
    EXPECT_EQ(spec.name, "hybrid");
    EXPECT_FALSE(spec.cache_fraction.has_value());
    EXPECT_TRUE(spec.given.empty());
}

TEST(SystemSpec, ParsesEveryKey)
{
    const SystemSpec spec = SystemSpec::parse(
        "scratchpipe:cache=0.05,policy=lfu,past=4,future=3,warm=0,"
        "bound=0");
    EXPECT_EQ(spec.name, "scratchpipe");
    ASSERT_TRUE(spec.cache_fraction.has_value());
    EXPECT_DOUBLE_EQ(*spec.cache_fraction, 0.05);
    EXPECT_EQ(spec.scratchpipe.policy, cache::PolicyKind::Lfu);
    EXPECT_EQ(spec.scratchpipe.past_window, 4u);
    EXPECT_EQ(spec.scratchpipe.future_window, 3u);
    EXPECT_FALSE(spec.scratchpipe.warm_start);
    EXPECT_FALSE(spec.scratchpipe.enforce_capacity_bound);
    EXPECT_TRUE(spec.given.contains(OptionSet::Scratchpad));
}

TEST(SystemSpec, SummaryRoundTrips)
{
    const SystemSpec spec = SystemSpec::parse(
        "scratchpipe:cache=0.05,policy=lfu,past=4,future=3,warm=0,"
        "bound=1");
    const SystemSpec reparsed = SystemSpec::parse(spec.summary());
    EXPECT_EQ(reparsed.name, spec.name);
    EXPECT_DOUBLE_EQ(*reparsed.cache_fraction, *spec.cache_fraction);
    EXPECT_EQ(reparsed.scratchpipe.policy, spec.scratchpipe.policy);
    EXPECT_EQ(reparsed.scratchpipe.past_window,
              spec.scratchpipe.past_window);
    EXPECT_EQ(reparsed.scratchpipe.future_window,
              spec.scratchpipe.future_window);
    EXPECT_EQ(reparsed.scratchpipe.warm_start,
              spec.scratchpipe.warm_start);
    EXPECT_EQ(reparsed.scratchpipe.enforce_capacity_bound,
              spec.scratchpipe.enforce_capacity_bound);
}

TEST(SystemSpec, RejectsMalformedInput)
{
    EXPECT_THROW(SystemSpec::parse(""), FatalError);
    EXPECT_THROW(SystemSpec::parse("scratchpipe:cache"), FatalError);
    EXPECT_THROW(SystemSpec::parse("scratchpipe:cache=abc"), FatalError);
    EXPECT_THROW(SystemSpec::parse("scratchpipe:nope=1"), FatalError);
    EXPECT_THROW(SystemSpec::parse("scratchpipe:policy=mru"),
                 FatalError);
    // One number grammar for every key: no blanks on either side, no
    // hex, nothing non-finite.
    for (const char *text :
         {"static:cache=0x1p-3", "static:cache= 0.1", "static:cache=0.1 ",
          "scratchpipe:past=0x3", "serve:burst_x=nan",
          "serve:budget_us=inf"})
        EXPECT_THROW(SystemSpec::parse(text), FatalError) << text;
    // Integer keys take decimal integers only.
    for (const char *text : {"scratchpipe:past=4.0", "scratchpipe:past=1e1",
                             "serve:batch_max=2.0"})
        EXPECT_THROW(SystemSpec::parse(text), FatalError) << text;
}

TEST(SystemSpec, RejectsTheDeletedOverlapKey)
{
    // Each table streams through every batch on its own pool task, so
    // no batch pipeline is left for overlap= to switch, and [Plan]
    // looks IDs up in a row index, so no mark-pass shards or probe
    // kernel are left for shard= and probe= to pick.
    for (const auto &[text, key] :
         {std::pair{"scratchpipe:overlap=1", "overlap"},
          std::pair{"strawman:overlap=0", "overlap"},
          std::pair{"scratchpipe:shard=1", "shard"},
          std::pair{"scratchpipe:probe=scalar", "probe"}}) {
        try {
            SystemSpec::parse(text);
            ADD_FAILURE() << text << " accepted";
        } catch (const FatalError &e) {
            EXPECT_NE(std::string(e.what()).find("unknown key '" +
                                                 std::string(key) + "'"),
                      std::string::npos)
                << e.what();
        }
    }
}

TEST(SystemSpec, RejectsDuplicateKeysInsteadOfLastWin)
{
    // Pre-fix, policy=lfu,policy=lru silently simulated LRU -- a
    // different system than the one on the screen. The diagnostic
    // names the offending key.
    try {
        SystemSpec::parse("scratchpipe:policy=lfu,policy=lru");
        FAIL() << "duplicate key accepted";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("duplicate key"),
                  std::string::npos);
        EXPECT_NE(std::string(e.what()).find("policy"),
                  std::string::npos);
    }
    EXPECT_THROW(SystemSpec::parse("static:cache=0.1,cache=0.2"),
                 FatalError);
}

TEST(SystemSpec, RejectsCacheOnCachelessSystems)
{
    // The legacy factory silently ignored cache_fraction for hybrid
    // and multigpu; the spec path makes that a hard error.
    for (const char *name : {"hybrid", "multigpu"}) {
        SystemSpec spec;
        spec.name = name;
        spec.cache_fraction = 0.05;
        EXPECT_THROW(spec.validate(), FatalError) << name;
        EXPECT_THROW(Registry::build(spec, smallModel(), kHw),
                     FatalError)
            << name;
    }
}

TEST(SystemSpec, RejectsScratchpadKeysOnOtherSystems)
{
    SystemSpec spec = SystemSpec::parse("static:cache=0.05,policy=lfu");
    EXPECT_THROW(spec.validate(), FatalError);
}

TEST(SystemSpec, RejectsOutOfRangeCache)
{
    for (double fraction : {-0.1, 0.0, 1.5}) {
        SystemSpec spec = SystemSpec::withCache("static", fraction);
        EXPECT_THROW(spec.validate(), FatalError) << fraction;
    }
}

TEST(Registry, KnowsTheFivePaperSystemsPlusServing)
{
    const std::vector<std::string> sorted = {
        "hybrid", "multigpu", "scratchpipe", "serve", "static", "strawman"};
    EXPECT_EQ(Registry::names(), sorted);
}

TEST(Registry, SuggestsNearestName)
{
    EXPECT_EQ(Registry::suggest("scratchpip"), "scratchpipe");
    EXPECT_EQ(Registry::suggest("hybird"), "hybrid");
    EXPECT_EQ(Registry::suggest("qqqqqqqqqq"), "");
    try {
        Registry::entry("statik");
        FAIL() << "expected FatalError";
    } catch (const FatalError &error) {
        EXPECT_NE(std::string(error.what()).find("did you mean"),
                  std::string::npos);
        EXPECT_NE(std::string(error.what()).find("static"),
                  std::string::npos);
    }
}

TEST(Registry, RoundTripEveryRegisteredSystem)
{
    // Every registered name must build from a default spec and
    // simulate 2 iterations at functional scale.
    const ModelConfig model = smallModel();
    const data::TraceDataset dataset(model.trace, 4);
    const BatchStats stats(dataset, 2);
    for (const auto &name : Registry::names()) {
        SystemSpec spec;
        spec.name = name;
        const auto system = Registry::build(spec, model, kHw);
        ASSERT_NE(system, nullptr) << name;
        EXPECT_EQ(system->name().empty(), false) << name;
        EXPECT_EQ(Registry::entry(name).description.empty(), false)
            << name;
        const RunResult result = system->simulate(dataset, stats, 2);
        EXPECT_GT(result.seconds_per_iteration, 0.0) << name;
        EXPECT_EQ(result.system_name, system->name()) << name;
        EXPECT_EQ(result.iterations, 2u) << name;
    }
}

TEST(Registry, EverySystemChecksTheRunAlike)
{
    // One run check for every system: stats that stop short of
    // warmup + iterations are a FatalError, like a short dataset,
    // never a PanicError from an out-of-range BatchStats lookup (which
    // runAll rethrows, killing the sweep) and never silently accepted.
    const ModelConfig model = smallModel();
    const data::TraceDataset dataset(model.trace, 4);
    const BatchStats stats(dataset, 2);
    for (const auto &name : Registry::names()) {
        SystemSpec spec;
        spec.name = name;
        const auto system = Registry::build(spec, model, kHw);
        EXPECT_THROW(system->simulate(dataset, stats, 2, 1), FatalError)
            << name;
        EXPECT_THROW(system->simulate(dataset, stats, 0), FatalError)
            << name;
        EXPECT_THROW(system->simulate(dataset, stats, 5), FatalError)
            << name;
    }
}

void
expectIdentical(const RunResult &a, const RunResult &b)
{
    EXPECT_EQ(a.system_name, b.system_name);
    EXPECT_EQ(a.iterations, b.iterations);
    EXPECT_EQ(a.seconds_per_iteration, b.seconds_per_iteration);
    EXPECT_EQ(a.hit_rate, b.hit_rate);
    EXPECT_EQ(a.gpu_bytes, b.gpu_bytes);
    EXPECT_EQ(a.bottleneck, b.bottleneck);
    EXPECT_EQ(a.busy.iteration_seconds, b.busy.iteration_seconds);
    EXPECT_EQ(a.busy.cpu_busy_seconds, b.busy.cpu_busy_seconds);
    EXPECT_EQ(a.busy.gpu_busy_seconds, b.busy.gpu_busy_seconds);
    ASSERT_EQ(a.breakdown.stages().size(), b.breakdown.stages().size());
    for (size_t i = 0; i < a.breakdown.stages().size(); ++i) {
        EXPECT_EQ(a.breakdown.stages()[i].name,
                  b.breakdown.stages()[i].name);
        EXPECT_EQ(a.breakdown.stages()[i].seconds,
                  b.breakdown.stages()[i].seconds);
    }
}

TEST(Registry, RunnerBitIdenticalToDirectBuildForAllFiveSystems)
{
    // The ExperimentRunner convenience path must charge exactly what a
    // hand-built Registry system does over an equivalent workload
    // (this parity test previously pinned the registry against the
    // removed simulateSystem shim).
    ExperimentOptions options;
    options.iterations = 3;
    options.warmup = 1;
    const ExperimentRunner runner(smallModel(), kHw, options);
    constexpr double kFraction = 0.05;
    for (const auto &name : Registry::names()) {
        SystemSpec spec;
        spec.name = name;
        if (Registry::entry(name).options.contains(OptionSet::Cache))
            spec.cache_fraction = kFraction;

        const RunResult via_runner = runner.run(spec);
        const auto system =
            Registry::build(spec, runner.model(), runner.hardware());
        const RunResult direct =
            system->simulate(runner.dataset(), runner.stats(), 3, 1);

        SCOPED_TRACE(name);
        expectIdentical(via_runner, direct);
    }
}

TEST(ExperimentRunner, HugeWindowSpecFails)
{
    // past + 1 + future wraps to 2 bits in 32-bit arithmetic; the
    // 16-bit hold-mask check must still refuse it.
    ExperimentOptions options;
    options.iterations = 2;
    const ExperimentRunner runner(smallModel(), kHw, options);
    EXPECT_THROW(runner.run("scratchpipe:past=4294967295,future=2"),
                 FatalError);
}

TEST(ExperimentRunner, SharesOneWorkloadAcrossSystems)
{
    ExperimentOptions options;
    options.iterations = 3;
    options.warmup = 1;
    const ExperimentRunner runner(smallModel(), kHw, options);
    EXPECT_EQ(runner.dataset().numBatches(), 6u); // 1 + 3 + look-ahead
    const auto results = runner.runAll(
        {SystemSpec::parse("hybrid"), SystemSpec::parse("scratchpipe"),
         SystemSpec::parse("static:cache=0.1")});
    ASSERT_EQ(results.size(), 3u);
    EXPECT_EQ(results[0].system_name, "Hybrid CPU-GPU");
    EXPECT_EQ(results[1].system_name, "ScratchPipe");
    EXPECT_EQ(results[2].system_name, "Static cache");
}

TEST(ExperimentRunner, ParallelMatchesSequential)
{
    ExperimentOptions sequential;
    sequential.iterations = 3;
    sequential.warmup = 1;
    ExperimentOptions parallel = sequential;
    parallel.jobs = 0; // all cores

    const std::vector<SystemSpec> specs = {
        SystemSpec::parse("hybrid"), SystemSpec::parse("static:cache=0.1"),
        SystemSpec::parse("strawman"), SystemSpec::parse("scratchpipe"),
        SystemSpec::parse("multigpu")};
    const auto a =
        ExperimentRunner(smallModel(), kHw, sequential).runAll(specs);
    const auto b =
        ExperimentRunner(smallModel(), kHw, parallel).runAll(specs);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        SCOPED_TRACE(specs[i].name);
        expectIdentical(a[i], b[i]);
    }
}

TEST(ExperimentRunner, BadSpecFailsFast)
{
    ExperimentOptions options;
    options.iterations = 2;
    const ExperimentRunner runner(smallModel(), kHw, options);
    EXPECT_THROW(runner.run("hybrid:cache=0.1"), FatalError);
    EXPECT_THROW(runner.run("scratchpip"), FatalError);
}

TEST(RunResultJson, EmitsValidJson)
{
    ExperimentOptions options;
    options.iterations = 2;
    options.warmup = 1;
    const ExperimentRunner runner(smallModel(), kHw, options);
    const auto results = runner.runAll(
        {SystemSpec::parse("hybrid"), SystemSpec::parse("scratchpipe")});

    const std::string object = results[1].toJson();
    EXPECT_TRUE(validJson(object)) << object;
    EXPECT_NE(object.find("\"system\":\"ScratchPipe\""),
              std::string::npos);
    EXPECT_NE(object.find("\"bottleneck\""), std::string::npos);

    const std::string array = toJson(results);
    EXPECT_TRUE(validJson(array)) << array;
    // hybrid has no cache: hit_rate must serialise as null.
    EXPECT_NE(array.find("\"hit_rate\":null"), std::string::npos);
}

TEST(RunResultJson, EscapesStrings)
{
    RunResult result;
    result.system_name = "we\"ird\\name";
    result.bottleneck = "tab\there";
    const std::string json = result.toJson();
    EXPECT_TRUE(validJson(json)) << json;
    EXPECT_NE(json.find("we\\\"ird\\\\name"), std::string::npos);
}

} // namespace
} // namespace sp::sys
