/**
 * @file
 * Tests for the Section VI-G multi-GPU ScratchPipe extension:
 * ScratchPipeSystem with ScratchPipeOptions::gpus > 1.
 */

#include <gtest/gtest.h>

#include <limits>

#include "common/logging.h"
#include "metrics/cost.h"
#include "sys/functional.h"
#include "sys/scratchpipe_sys.h"

namespace sp::sys
{
namespace
{

struct PaperWorkload
{
    explicit PaperWorkload(data::Locality locality,
                           uint64_t iterations = 5)
        : model([&] {
              ModelConfig m = ModelConfig::paperDefault();
              m.trace.locality = locality;
              m.trace.seed = 60;
              return m;
          }()),
          dataset(model.trace, iterations + 2),
          stats(dataset, iterations), iters(iterations)
    {
    }
    ModelConfig model;
    data::TraceDataset dataset;
    BatchStats stats;
    uint64_t iters;
};

const sim::HardwareConfig kHw = sim::HardwareConfig::paperTestbed();

ScratchPipeOptions
defaultOptions()
{
    ScratchPipeOptions options;
    options.cache_fraction = 0.10;
    return options;
}

ScratchPipeOptions
multiGpuOptions()
{
    ScratchPipeOptions options = defaultOptions();
    options.gpus = kHw.multi_gpu_count;
    return options;
}

TEST(ScratchPipeMultiGpu, FasterThanSingleGpuScratchPipe)
{
    // More HBM, more PCIe lanes, data-parallel MLPs: the extension
    // must be faster per iteration...
    PaperWorkload w(data::Locality::Medium);
    ScratchPipeSystem single(w.model, kHw, defaultOptions());
    ScratchPipeSystem multi(w.model, kHw, multiGpuOptions());
    const double t1 =
        single.simulate(w.dataset, w.stats, w.iters).seconds_per_iteration;
    const double t8 =
        multi.simulate(w.dataset, w.stats, w.iters).seconds_per_iteration;
    EXPECT_LT(t8, t1);
}

TEST(ScratchPipeMultiGpu, FarFromLinearScaling)
{
    // ...but nowhere near 8x: shared CPU DRAM and framework overheads
    // bind it (the paper's Section VI-G argument).
    PaperWorkload w(data::Locality::Random);
    ScratchPipeSystem single(w.model, kHw, defaultOptions());
    ScratchPipeSystem multi(w.model, kHw, multiGpuOptions());
    const double t1 =
        single.simulate(w.dataset, w.stats, w.iters).seconds_per_iteration;
    const double t8 =
        multi.simulate(w.dataset, w.stats, w.iters).seconds_per_iteration;
    EXPECT_GT(t8 * 4.0, t1); // speedup < 4x despite 8x the GPUs
}

TEST(ScratchPipeMultiGpu, NotCostEffective)
{
    // The quantified Section VI-G claim: $/iteration is worse than
    // single-GPU ScratchPipe at every locality.
    for (auto locality : {data::Locality::Random, data::Locality::High}) {
        PaperWorkload w(locality);
        ScratchPipeSystem single(w.model, kHw, defaultOptions());
        ScratchPipeSystem multi(w.model, kHw, multiGpuOptions());
        const double t1 = single.simulate(w.dataset, w.stats, w.iters)
                              .seconds_per_iteration;
        const double t8 = multi.simulate(w.dataset, w.stats, w.iters)
                              .seconds_per_iteration;
        const double c1 = metrics::trainingCost(
            metrics::AwsInstance::p3_2xlarge(), t1, 1'000'000);
        const double c8 = metrics::trainingCost(
            metrics::AwsInstance::p3_16xlarge(), t8, 1'000'000);
        EXPECT_GT(c8, c1) << data::localityName(locality);
    }
}

TEST(ScratchPipeMultiGpu, SixStageBreakdownReported)
{
    PaperWorkload w(data::Locality::Medium);
    ScratchPipeSystem multi(w.model, kHw, multiGpuOptions());
    const auto result = multi.simulate(w.dataset, w.stats, w.iters);
    EXPECT_EQ(result.breakdown.stages().size(), 6u);
    EXPECT_EQ(result.system_name, "ScratchPipe multi-GPU");
    EXPECT_GT(result.hit_rate, 0.0);
    EXPECT_FALSE(result.bottleneck.empty());
}

TEST(ScratchPipeMultiGpu, HitRateMatchesSingleGpu)
{
    // The cache managers are identical per table; only resource
    // charging differs, so hit rates must agree.
    PaperWorkload w(data::Locality::High);
    ScratchPipeSystem single(w.model, kHw, defaultOptions());
    ScratchPipeSystem multi(w.model, kHw, multiGpuOptions());
    const auto r1 = single.simulate(w.dataset, w.stats, w.iters);
    const auto r8 = multi.simulate(w.dataset, w.stats, w.iters);
    EXPECT_NEAR(r1.hit_rate, r8.hit_rate, 1e-12);
}

TEST(ScratchPipeMultiGpu, StrawmanModeRejected)
{
    PaperWorkload w(data::Locality::Medium);
    ScratchPipeOptions options = multiGpuOptions();
    options.pipelined = false;
    EXPECT_THROW(ScratchPipeSystem(w.model, kHw, options), FatalError);
}

TEST(ScratchPipeMultiGpu, InvalidOptionsRejectedAtEveryGpuCount)
{
    // One sizing rule for every GPU count: the former multi-GPU copy
    // admitted a NaN fraction and silently simulated every row.
    const ModelConfig model = ModelConfig::paperDefault();
    for (const uint32_t gpus : {1u, 8u}) {
        for (const double fraction :
             {std::numeric_limits<double>::quiet_NaN(), 0.0, 1.5}) {
            ScratchPipeOptions options = defaultOptions();
            options.gpus = gpus;
            options.cache_fraction = fraction;
            EXPECT_THROW(ScratchPipeSystem(model, kHw, options), FatalError)
                << "gpus=" << gpus << " cache_fraction=" << fraction;
        }
    }
    ScratchPipeOptions options = defaultOptions();
    options.gpus = 0;
    EXPECT_THROW(ScratchPipeSystem(model, kHw, options), FatalError);
}

TEST(ScratchPipeMultiGpu, ExchangeCarriesAdaGradState)
{
    // Fills and write-backs move the optimizer state with the row on
    // every GPU, exactly as on one.
    PaperWorkload w(data::Locality::Medium);
    ModelConfig adagrad = w.model;
    adagrad.optimizer = Optimizer::AdaGrad;
    const ScratchPipeSystem sgd_sys(w.model, kHw, multiGpuOptions());
    const ScratchPipeSystem adagrad_sys(adagrad, kHw, multiGpuOptions());
    const double sgd_exchange = sgd_sys.simulate(w.dataset, w.stats, w.iters)
                                    .breakdown.get("Exchange");
    const double adagrad_exchange =
        adagrad_sys.simulate(w.dataset, w.stats, w.iters)
            .breakdown.get("Exchange");
    EXPECT_GT(sgd_exchange, 0.0);
    EXPECT_GT(adagrad_exchange, sgd_exchange);
}

TEST(ScratchPipeMultiGpu, FunctionalTrainerRejectsNanFraction)
{
    FunctionalScratchPipeTrainer::Options options;
    options.cache_fraction = std::numeric_limits<double>::quiet_NaN();
    EXPECT_THROW(FunctionalScratchPipeTrainer(ModelConfig::functionalScale(),
                                              options),
                 FatalError);
}

} // namespace
} // namespace sp::sys
