/**
 * @file
 * Tests for the online serving system: spec grammar round-trips,
 * SLO percentile ordering and exactness, admission semantics
 * (batch_max vs latency budget, deadline ties), static vs dynamic
 * GPU-tier refresh, determinism, and option validation.
 */

#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "common/logging.h"
#include "sys/experiment.h"
#include "sys/registry.h"
#include "sys/serving.h"

namespace sp::sys
{
namespace
{

const sim::HardwareConfig kHw = sim::HardwareConfig::paperTestbed();

ModelConfig
servingModel()
{
    ModelConfig model = ModelConfig::functionalScale();
    model.trace.locality = data::Locality::Medium;
    model.trace.seed = 77;
    return model;
}

RunResult
runServe(const std::string &spec_text, const ModelConfig &model,
         uint64_t iterations = 4, uint64_t warmup = 1)
{
    const SystemSpec spec = SystemSpec::parse(spec_text);
    spec.validate();
    const data::TraceDataset dataset(model.trace,
                                     warmup + iterations + 1);
    const BatchStats stats(dataset, warmup + iterations);
    const auto system = Registry::build(spec, model, kHw);
    return system->simulate(dataset, stats, iterations, warmup);
}

TEST(ServingSpec, ParsesAndRoundTripsEveryKey)
{
    const std::string text =
        "serve:arrival=bursty,rate=250000,batch_max=16,budget_us=300,"
        "refresh=lfu,burst_x=4,burst_on_us=250,burst_off_us=2000";
    const SystemSpec spec = SystemSpec::parse(text);
    EXPECT_EQ(spec.name, "serve");
    EXPECT_TRUE(spec.given.contains(OptionSet::Serve));
    EXPECT_EQ(spec.serve.arrival.kind, data::ArrivalKind::Bursty);
    EXPECT_EQ(spec.serve.arrival.rate, 250000.0);
    EXPECT_EQ(spec.serve.batch_max, 16u);
    EXPECT_EQ(spec.serve.budget_us, 300.0);
    EXPECT_TRUE(spec.serve.dynamic_refresh);
    EXPECT_EQ(spec.serve.policy, cache::PolicyKind::Lfu);
    EXPECT_EQ(spec.serve.arrival.burst_x, 4.0);
    EXPECT_EQ(spec.serve.arrival.burst_on_us, 250.0);
    EXPECT_EQ(spec.serve.arrival.burst_off_us, 2000.0);
    // summary() is canonical and parse(summary()) is the fixed point.
    const SystemSpec again = SystemSpec::parse(spec.summary());
    EXPECT_EQ(again.summary(), spec.summary());
    EXPECT_EQ(again.serve.arrival.rate, spec.serve.arrival.rate);
    EXPECT_EQ(again.serve.budget_us, spec.serve.budget_us);
}

TEST(ServingSpec, RefreshStaticRoundTrips)
{
    const SystemSpec spec =
        SystemSpec::parse("serve:refresh=static,rate=100000");
    EXPECT_FALSE(spec.serve.dynamic_refresh);
    const SystemSpec again = SystemSpec::parse(spec.summary());
    EXPECT_FALSE(again.serve.dynamic_refresh);
}

TEST(ServingSpec, RejectsBadRateAtParseTime)
{
    // rate=0 would divide every Poisson gap by zero; the parser says
    // so instead of producing an infinite inter-arrival time.
    EXPECT_THROW(SystemSpec::parse("serve:rate=0"), FatalError);
    EXPECT_THROW(SystemSpec::parse("serve:rate=-5"), FatalError);
    EXPECT_THROW(SystemSpec::parse("serve:rate=nan"), FatalError);
    EXPECT_THROW(SystemSpec::parse("serve:rate=inf"), FatalError);
    EXPECT_THROW(SystemSpec::parse("serve:batch_max=0"), FatalError);
}

TEST(ServingSpec, ServeKeysRejectedOnTrainingSystems)
{
    SystemSpec spec = SystemSpec::parse("hybrid:rate=100000");
    EXPECT_THROW(spec.validate(), FatalError);
    SystemSpec batch = SystemSpec::parse("static:batch_max=8");
    EXPECT_THROW(batch.validate(), FatalError);
    // ...and scratchpad keys are rejected on serve.
    SystemSpec pipe = SystemSpec::parse("serve:past=4");
    EXPECT_THROW(pipe.validate(), FatalError);
}

TEST(ServingSpec, InvalidBurstShapeRejectedByValidate)
{
    SystemSpec spec = SystemSpec::parse(
        "serve:arrival=bursty,burst_x=100,burst_on_us=500,"
        "burst_off_us=500");
    EXPECT_THROW(spec.validate(), FatalError);
}

TEST(Serving, ReportsOrderedPercentilesAndCounts)
{
    const ModelConfig model = servingModel();
    const RunResult result =
        runServe("serve:rate=400000,batch_max=8,budget_us=200", model);
    ASSERT_TRUE(result.serving.enabled);
    EXPECT_EQ(result.serving.requests, 4u * model.trace.batch_size);
    EXPECT_EQ(result.serving.dropped, 0u);
    EXPECT_GT(result.serving.batches, 0u);
    EXPECT_GT(result.serving.p50, 0.0);
    EXPECT_LE(result.serving.p50, result.serving.p99);
    EXPECT_LE(result.serving.p99, result.serving.p999);
    EXPECT_LE(result.serving.p999, result.serving.max);
    EXPECT_GT(result.serving.mean, 0.0);
    EXPECT_LE(result.serving.mean, result.serving.max);
    EXPECT_GE(result.serving.mean_queue_depth, 1.0);
    EXPECT_GE(result.serving.max_queue_depth,
              result.serving.mean_queue_depth);
    EXPECT_GT(result.serving.achieved_rate, 0.0);
    EXPECT_EQ(result.serving.offered_rate, 400000.0);
    EXPECT_GT(result.seconds_per_iteration, 0.0);
    EXPECT_GT(result.hit_rate, 0.0);
    EXPECT_LT(result.hit_rate, 1.0);
}

TEST(Serving, BatchMaxCapsAdmission)
{
    // A fast stream against batch_max=4: every batch fills before the
    // generous budget can fire, so fill is exactly 4.
    const ModelConfig model = servingModel();
    const RunResult result = runServe(
        "serve:rate=1000000,batch_max=4,budget_us=100000", model);
    EXPECT_EQ(result.serving.mean_batch_fill, 4.0);
    EXPECT_EQ(result.serving.max_queue_depth, 4.0);
}

TEST(Serving, ZeroBudgetServesEveryRequestAlone)
{
    // budget_us=0 arms an immediate deadline: each request dispatches
    // alone unless another arrival lands at the exact same instant.
    const ModelConfig model = servingModel();
    const RunResult result =
        runServe("serve:rate=200000,batch_max=64,budget_us=0", model);
    EXPECT_EQ(result.serving.mean_batch_fill, 1.0);
    EXPECT_EQ(result.serving.batches, result.serving.requests);
}

TEST(Serving, DeadlineTiesKeepTheNextArrivalOnly)
{
    // rate=262144 spaces arrivals exactly 2^-18 s apart, and each
    // budget below is a whole number of gaps, so every deadline lands
    // exactly on an arrival time. One gap: the deadline ties the next
    // arrival, which still joins the batch. Two gaps: it ties the one
    // after, and the batch closes first. Either way batches hold two.
    const ModelConfig model = servingModel();
    for (const char *budget : {"3.814697265625", "7.62939453125"}) {
        const RunResult result = runServe(
            std::string("serve:arrival=uniform,rate=262144,batch_max=16,"
                        "budget_us=") +
                budget,
            model);
        EXPECT_EQ(result.serving.mean_batch_fill, 2.0) << budget;
        EXPECT_EQ(2 * result.serving.batches, result.serving.requests)
            << budget;
    }
}

TEST(Serving, BudgetBoundsQueueingDelayUnderLightLoad)
{
    // At a light offered load the queue never fills batch_max, so the
    // budget deadline is the admission path: no request's wait before
    // service exceeds budget + its own batch's position effects.
    const ModelConfig model = servingModel();
    const RunResult result = runServe(
        "serve:rate=50000,batch_max=1000000000,budget_us=500", model);
    // With batch_max unreachable, every dispatch is budget-driven.
    EXPECT_GT(result.serving.batches, 0u);
    EXPECT_LT(result.serving.mean_batch_fill,
              static_cast<double>(result.serving.requests));
}

TEST(Serving, StaticAndDynamicRefreshDiffer)
{
    const ModelConfig model = servingModel();
    const RunResult pinned = runServe(
        "serve:rate=400000,refresh=static,cache=0.05", model);
    const RunResult lru =
        runServe("serve:rate=400000,refresh=lru,cache=0.05", model);
    // Same stream, different tier behaviour: hit rates must differ,
    // and the dynamic tier pays HitMap metadata in gpu_bytes.
    EXPECT_NE(pinned.hit_rate, lru.hit_rate);
    EXPECT_GT(lru.gpu_bytes, pinned.gpu_bytes);
}

TEST(Serving, DeterministicAcrossRepeatRuns)
{
    const ModelConfig model = servingModel();
    const std::string spec =
        "serve:rate=300000,arrival=bursty,batch_max=16,budget_us=250,"
        "refresh=lru";
    const RunResult a = runServe(spec, model);
    const RunResult b = runServe(spec, model);
    EXPECT_EQ(a.serving.p50, b.serving.p50);
    EXPECT_EQ(a.serving.p99, b.serving.p99);
    EXPECT_EQ(a.serving.p999, b.serving.p999);
    EXPECT_EQ(a.serving.mean, b.serving.mean);
    EXPECT_EQ(a.seconds_per_iteration, b.seconds_per_iteration);
    EXPECT_EQ(a.hit_rate, b.hit_rate);
}

TEST(Serving, SeedChangesTheStream)
{
    ModelConfig model = servingModel();
    const RunResult a = runServe("serve:rate=300000", model);
    model.trace.seed = 78;
    const RunResult b = runServe("serve:rate=300000", model);
    EXPECT_NE(a.serving.p50, b.serving.p50);
}

TEST(Serving, JsonCarriesTheServingObject)
{
    const ModelConfig model = servingModel();
    const RunResult result = runServe("serve:rate=400000", model);
    const std::string json = result.toJson();
    for (const char *key :
         {"\"serving\"", "\"p50\"", "\"p99\"", "\"p999\"",
          "\"queue_depth\"", "\"offered_rate\"", "\"achieved_rate\"",
          "\"mean_batch_fill\"", "\"dropped\""})
        EXPECT_NE(json.find(key), std::string::npos) << key;
    // ...and training results don't grow one.
    RunResult training;
    training.system_name = "x";
    training.iterations = 1;
    EXPECT_EQ(training.toJson().find("\"serving\""),
              std::string::npos);
}

TEST(ServeOptions, ValidationCatchesEachKnob)
{
    ServeOptions options;
    EXPECT_TRUE(options.validationError().empty());
    options.batch_max = 0;
    EXPECT_FALSE(options.validationError().empty());
    options.batch_max = 32;
    options.budget_us = -1.0;
    EXPECT_FALSE(options.validationError().empty());
    options.budget_us = std::numeric_limits<double>::quiet_NaN();
    EXPECT_FALSE(options.validationError().empty());
    options.budget_us = 200.0;
    options.cache_fraction = 0.0;
    EXPECT_FALSE(options.validationError().empty());
    options.cache_fraction = 1.5;
    EXPECT_FALSE(options.validationError().empty());
    options.cache_fraction = 0.05;
    options.arrival.rate = 0.0;
    EXPECT_FALSE(options.validationError().empty());
}

TEST(Serving, BuildsThroughExperimentRunner)
{
    ExperimentOptions options;
    options.iterations = 3;
    options.warmup = 1;
    options.jobs = 1;
    const ExperimentRunner runner(servingModel(), kHw, options);
    const auto results = runner.runAll(
        {SystemSpec::parse("serve:rate=400000,batch_max=8")});
    ASSERT_EQ(results.size(), 1u);
    EXPECT_FALSE(results[0].failed()) << results[0].error;
    EXPECT_TRUE(results[0].serving.enabled);
    EXPECT_EQ(results[0].system_name, "Serving");
}

} // namespace
} // namespace sp::sys
