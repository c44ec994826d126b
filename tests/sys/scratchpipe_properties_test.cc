/**
 * @file
 * Property tests of the pipelined ScratchPipe runtime: always-hit,
 * hazard freedom under audit, failure injection (shrunk windows must
 * trip the auditor; under-provisioned capacity must fatal), and
 * traffic conservation.
 */

#include <gtest/gtest.h>

#include "common/logging.h"
#include "sys/functional.h"

namespace sp::sys
{
namespace
{

ModelConfig
functionalModel(data::Locality locality, uint64_t seed)
{
    ModelConfig model = ModelConfig::functionalScale();
    model.trace.locality = locality;
    model.trace.seed = seed;
    return model;
}

TEST(ScratchPipeProperties, AuditPassesWithPaperWindows)
{
    // 30 iterations across localities: the auditor checks every cycle
    // and must stay silent.
    for (auto locality : data::kAllLocalities) {
        const ModelConfig model = functionalModel(locality, 101);
        data::TraceDataset dataset(model.trace, 30);
        FunctionalScratchPipeTrainer trainer(
            model, ScratchPipeOptions{.cache_fraction = 0.25});
        EXPECT_NO_THROW(trainer.train(dataset, 30))
            << data::localityName(locality);
        EXPECT_EQ(trainer.auditor().cyclesAudited(), 34u);
        EXPECT_GT(trainer.auditor().checkedAccesses(), 0u);
    }
}

TEST(ScratchPipeProperties, AlwaysHitAtTrainTime)
{
    // The trainer's accessor panics on a non-resident row, so a clean
    // run *is* the always-hit proof; additionally the plan-level hit
    // rate must rise with locality.
    const ModelConfig high = functionalModel(data::Locality::High, 7);
    const ModelConfig rand = functionalModel(data::Locality::Random, 7);
    data::TraceDataset dataset_h(high.trace, 25);
    data::TraceDataset dataset_r(rand.trace, 25);

    FunctionalScratchPipeTrainer t_h(
        high, ScratchPipeOptions{.cache_fraction = 0.25});
    FunctionalScratchPipeTrainer t_r(
        rand, ScratchPipeOptions{.cache_fraction = 0.25});
    t_h.train(dataset_h, 25);
    t_r.train(dataset_r, 25);
    EXPECT_GT(t_h.hitRate(), t_r.hitRate());
}

TEST(ScratchPipeProperties, ShrunkenWindowsTripTheAuditor)
{
    // Failure injection: past_window = 0 / future_window = 0 removes
    // the paper's hazard protection. The auditor must catch a RAW or
    // WAW conflict (or, if eviction pressure empties the needed rows,
    // the always-hit accessor panics) -- either way, a PanicError.
    ModelConfig model = functionalModel(data::Locality::Medium, 303);
    // Small row space + tight scratchpad maximise slot reuse across
    // in-flight batches: 64 draws per batch over 256 rows against a
    // 64-slot scratchpad keeps eviction pressure constant.
    model.trace.rows_per_table = 256;
    model.trace.lookups_per_table = 2;
    data::TraceDataset dataset(model.trace, 30);

    FunctionalScratchPipeTrainer trainer(
        model, {.cache_fraction = 0.25, // 64 slots
                .past_window = 0,
                .future_window = 0,
                .enforce_capacity_bound = false});
    EXPECT_THROW(trainer.train(dataset, 30), PanicError);
}

TEST(ScratchPipeProperties, UnderProvisionedCapacityIsFatal)
{
    ModelConfig model = functionalModel(data::Locality::Random, 404);
    model.trace.rows_per_table = 100'000; // forces distinct IDs

    FunctionalScratchPipeTrainer trainer(
        model, {.cache_fraction = 0.001, // 100 slots << window working set
                .enforce_capacity_bound = false});
    data::TraceDataset dataset(model.trace, 10);
    EXPECT_THROW(trainer.train(dataset, 10), FatalError);
}

TEST(ScratchPipeProperties, CapacityBoundMakesTheSameRunSafe)
{
    ModelConfig model = functionalModel(data::Locality::Random, 404);
    model.trace.rows_per_table = 100'000;

    FunctionalScratchPipeTrainer trainer(
        model, {.cache_fraction = 0.001,
                .enforce_capacity_bound = true}); // grown to §VI-D bound
    data::TraceDataset dataset(model.trace, 10);
    EXPECT_NO_THROW(trainer.train(dataset, 10));
}

TEST(ScratchPipeProperties, FillEvictionBookkeepingBalances)
{
    // Conservation: every fill either lands in a previously vacant
    // slot or displaces exactly one eviction; residency at the end
    // equals fills minus evictions.
    const ModelConfig model = functionalModel(data::Locality::Medium, 17);
    data::TraceDataset dataset(model.trace, 30);
    FunctionalScratchPipeTrainer trainer(
        model, ScratchPipeOptions{.cache_fraction = 0.25});
    trainer.train(dataset, 30);

    const auto stats = trainer.aggregateStats();
    EXPECT_EQ(stats.fills, stats.misses);
    EXPECT_GE(stats.fills, stats.evictions);
    EXPECT_GT(stats.hits + stats.misses, 0u);
    EXPECT_EQ(stats.hits + stats.misses,
              30ull * model.trace.idsPerBatch());
}

TEST(ScratchPipeProperties, StrawmanNeedsNoWindow)
{
    // Sequential execution is hazard-free by construction, even with
    // zero-width windows and heavy eviction pressure.
    ModelConfig model = functionalModel(data::Locality::Medium, 19);
    model.trace.rows_per_table = 96;
    data::TraceDataset dataset(model.trace, 20);

    FunctionalScratchPipeTrainer trainer(
        model, {.cache_fraction = 1.0, .pipelined = false});
    EXPECT_NO_THROW(trainer.train(dataset, 20));
}

TEST(ScratchPipeProperties, HitRateImprovesWithLargerScratchpad)
{
    auto run = [](double fraction) {
        ModelConfig model =
            functionalModel(data::Locality::Medium, 23);
        model.trace.rows_per_table = 8192;
        data::TraceDataset dataset(model.trace, 25);
        FunctionalScratchPipeTrainer trainer(model,
                                             {.cache_fraction = fraction});
        trainer.train(dataset, 25);
        return trainer.hitRate();
    };
    EXPECT_GT(run(0.50), run(0.10));
}

} // namespace
} // namespace sp::sys
