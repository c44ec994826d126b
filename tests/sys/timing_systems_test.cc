/**
 * @file
 * Timing-model shape tests for all five system models.
 *
 * These run a scaled-down geometry (100K-row tables) so the whole
 * suite stays fast; the assertions are the paper's qualitative claims
 * (who is faster than whom, how hit rates and bottlenecks move with
 * locality and cache size), not absolute numbers.
 */

#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "common/logging.h"
#include "core/controller.h"
#include "sys/hybrid.h"
#include "sys/multigpu.h"
#include "sys/registry.h"
#include "sys/scratchpipe_sys.h"
#include "sys/static_sys.h"

namespace sp::sys
{
namespace
{

ModelConfig
testModel(data::Locality locality)
{
    ModelConfig model;
    model.trace.num_tables = 4;
    model.trace.rows_per_table = 100'000;
    model.trace.lookups_per_table = 8;
    model.trace.batch_size = 256;
    model.trace.locality = locality;
    model.trace.seed = 33;
    model.embedding_dim = 64;
    model.bottom_hidden = {128, 64};
    model.top_hidden = {256, 128};
    return model;
}

struct Workload
{
    explicit Workload(data::Locality locality, uint64_t iterations = 12)
        : model(testModel(locality)), dataset(model.trace, iterations + 2),
          stats(dataset, iterations), iters(iterations)
    {
    }
    ModelConfig model;
    data::TraceDataset dataset;
    BatchStats stats;
    uint64_t iters;
};

const sim::HardwareConfig kHw = sim::HardwareConfig::paperTestbed();

TEST(TimingHybrid, BreakdownHasPaperStages)
{
    Workload w(data::Locality::Medium);
    HybridCpuGpu system(w.model, kHw);
    const RunResult result = system.simulate(w.dataset, w.stats, w.iters);
    EXPECT_GT(result.breakdown.get("CPU embedding forward"), 0.0);
    EXPECT_GT(result.breakdown.get("CPU embedding backward"), 0.0);
    EXPECT_GT(result.breakdown.get("GPU"), 0.0);
    EXPECT_NEAR(result.breakdown.total(), result.seconds_per_iteration,
                1e-12);
}

TEST(TimingHybrid, CpuEmbeddingDominatesAtPaperScale)
{
    // Fig. 5: the CPU-side embedding stages dominate hybrid training.
    // This holds at the paper's geometry, where bandwidth terms dwarf
    // the fixed per-iteration overheads.
    ModelConfig model = ModelConfig::paperDefault();
    model.trace.locality = data::Locality::Random;
    model.trace.seed = 44;
    data::TraceDataset dataset(model.trace, 4);
    BatchStats stats(dataset, 4);
    HybridCpuGpu system(model, kHw);
    const RunResult result = system.simulate(dataset, stats, 4);
    const double cpu = result.breakdown.get("CPU embedding forward") +
                       result.breakdown.get("CPU embedding backward");
    EXPECT_GT(cpu, 2.0 * result.breakdown.get("GPU"));
}

TEST(TimingHybrid, RoughlyLocalityInsensitive)
{
    // The no-cache baseline moves the same bytes regardless of skew.
    Workload random(data::Locality::Random);
    Workload high(data::Locality::High);
    HybridCpuGpu sys_r(random.model, kHw), sys_h(high.model, kHw);
    const double t_r =
        sys_r.simulate(random.dataset, random.stats, random.iters)
            .seconds_per_iteration;
    const double t_h =
        sys_h.simulate(high.dataset, high.stats, high.iters)
            .seconds_per_iteration;
    EXPECT_NEAR(t_r / t_h, 1.0, 0.15);
}

TEST(TimingStatic, HitRateGrowsWithCacheSize)
{
    Workload w(data::Locality::Medium);
    double previous = -1.0;
    for (double fraction : {0.02, 0.04, 0.08, 0.16}) {
        StaticCacheSystem system(w.model, kHw, fraction);
        const RunResult result =
            system.simulate(w.dataset, w.stats, w.iters);
        EXPECT_GT(result.hit_rate, previous);
        previous = result.hit_rate;
    }
}

TEST(TimingStatic, HitRateGrowsWithLocality)
{
    double previous = -1.0;
    for (auto locality :
         {data::Locality::Random, data::Locality::Low,
          data::Locality::Medium, data::Locality::High}) {
        Workload w(locality);
        StaticCacheSystem system(w.model, kHw, 0.02);
        const RunResult result =
            system.simulate(w.dataset, w.stats, w.iters);
        EXPECT_GT(result.hit_rate, previous)
            << data::localityName(locality);
        previous = result.hit_rate;
    }
}

TEST(TimingStatic, FasterThanHybridWhenLocalityHigh)
{
    Workload w(data::Locality::High);
    HybridCpuGpu hybrid(w.model, kHw);
    StaticCacheSystem cached(w.model, kHw, 0.10);
    const double t_hybrid =
        hybrid.simulate(w.dataset, w.stats, w.iters).seconds_per_iteration;
    const double t_cached =
        cached.simulate(w.dataset, w.stats, w.iters).seconds_per_iteration;
    EXPECT_LT(t_cached, t_hybrid);
}

TEST(TimingStatic, NoBetterThanHybridOnRandomTrace)
{
    // A 2% static cache is useless against uniform traffic (Fig. 13's
    // Random cluster): at most marginal gains.
    Workload w(data::Locality::Random);
    HybridCpuGpu hybrid(w.model, kHw);
    StaticCacheSystem cached(w.model, kHw, 0.02);
    const double t_hybrid =
        hybrid.simulate(w.dataset, w.stats, w.iters).seconds_per_iteration;
    const double t_cached =
        cached.simulate(w.dataset, w.stats, w.iters).seconds_per_iteration;
    EXPECT_GT(t_cached, 0.85 * t_hybrid);
}

TEST(TimingStatic, InvalidFractionFatal)
{
    Workload w(data::Locality::Medium);
    EXPECT_THROW(StaticCacheSystem(w.model, kHw, 0.0), FatalError);
    EXPECT_THROW(StaticCacheSystem(w.model, kHw, 1.5), FatalError);
}

ScratchPipeOptions
spOptions(double fraction, bool pipelined)
{
    ScratchPipeOptions options;
    options.cache_fraction = fraction;
    options.pipelined = pipelined;
    return options;
}

TEST(TimingScratchPipe, SixStageBreakdown)
{
    Workload w(data::Locality::Medium);
    ScratchPipeSystem system(w.model, kHw, spOptions(0.10, true));
    const RunResult result = system.simulate(w.dataset, w.stats, w.iters);
    EXPECT_EQ(result.breakdown.stages().size(), 6u);
    for (const char *stage :
         {"Load", "Plan", "Collect", "Exchange", "Insert", "Train"})
        EXPECT_GT(result.breakdown.get(stage), 0.0) << stage;
    EXPECT_FALSE(result.bottleneck.empty());
}

TEST(TimingScratchPipe, PipeliningNeverSlower)
{
    for (auto locality : {data::Locality::Random, data::Locality::High}) {
        Workload w(locality);
        ScratchPipeSystem pipelined(w.model, kHw, spOptions(0.10, true));
        ScratchPipeSystem strawman(w.model, kHw, spOptions(0.10, false));
        const double t_pipe =
            pipelined.simulate(w.dataset, w.stats, w.iters)
                .seconds_per_iteration;
        const double t_straw =
            strawman.simulate(w.dataset, w.stats, w.iters)
                .seconds_per_iteration;
        EXPECT_LE(t_pipe, t_straw);
    }
}

TEST(TimingScratchPipe, BeatsStaticCacheEverywhere)
{
    // Fig. 13's headline: ScratchPipe wins at every locality.
    for (auto locality : data::kAllLocalities) {
        Workload w(locality);
        StaticCacheSystem baseline(w.model, kHw, 0.10);
        ScratchPipeSystem scratchpipe(w.model, kHw, spOptions(0.10, true));
        const double t_static =
            baseline.simulate(w.dataset, w.stats, w.iters)
                .seconds_per_iteration;
        const double t_sp =
            scratchpipe.simulate(w.dataset, w.stats, w.iters)
                .seconds_per_iteration;
        EXPECT_LT(t_sp, t_static) << data::localityName(locality);
    }
}

TEST(TimingScratchPipe, SpeedupShrinksWithLocality)
{
    // Fig. 13: gains are largest on low-locality traces.
    auto speedup = [&](data::Locality locality) {
        Workload w(locality);
        StaticCacheSystem baseline(w.model, kHw, 0.10);
        ScratchPipeSystem scratchpipe(w.model, kHw, spOptions(0.10, true));
        return baseline.simulate(w.dataset, w.stats, w.iters)
                   .seconds_per_iteration /
               scratchpipe.simulate(w.dataset, w.stats, w.iters)
                   .seconds_per_iteration;
    };
    EXPECT_GT(speedup(data::Locality::Random),
              speedup(data::Locality::High));
}

TEST(TimingScratchPipe, CapacityBoundEnforced)
{
    Workload w(data::Locality::Random);
    ScratchPipeSystem system(w.model, kHw, spOptions(0.001, true));
    // 0.1% of 100K = 100 slots, far below the window working set; the
    // system must have grown it to the §VI-D bound.
    EXPECT_GE(system.slotsPerTable(),
              core::ScratchPipeController::worstCaseSlots(
                  3, 2, w.model.trace.idsPerTable()));
    EXPECT_NO_THROW(system.simulate(w.dataset, w.stats, w.iters));
}

TEST(TimingScratchPipe, SlotCountPastThe32BitSlotSpaceIsFatal)
{
    // Sizing only: scratchpadSlots() allocates nothing. These counts
    // used to wrap to 5 and 705,032,704 slots.
    ModelConfig model = testModel(data::Locality::Medium);
    for (const auto &[rows, fraction] :
         {std::pair<uint64_t, double>{(1ull << 32) + 5, 1.0},
          {50'000'000'000ull, 0.1}}) {
        model.trace.rows_per_table = rows;
        try {
            scratchpadSlots(model, spOptions(fraction, true));
            ADD_FAILURE() << rows << " rows at " << fraction
                          << " accepted";
        } catch (const FatalError &e) {
            EXPECT_NE(std::string(e.what()).find(
                          "exceeds the 32-bit slot space"),
                      std::string::npos)
                << e.what();
        }
    }
    // 2^32 - 1 is the Hit-Map's miss sentinel; one below it fits.
    model.trace.rows_per_table = 0xfffffffeull;
    EXPECT_EQ(scratchpadSlots(model, spOptions(1.0, true)), 0xfffffffeu);
}

TEST(TimingScratchPipe, AdaGradStorageHoldsTheStatePlane)
{
    // A row's AdaGrad accumulators move with it on every fill,
    // write-back and scatter, so its slot holds both: Storage costs a
    // second dim-float row per slot, and nothing else in gpu_bytes
    // moves.
    Workload w(data::Locality::Medium);
    ModelConfig adagrad = w.model;
    adagrad.optimizer = Optimizer::AdaGrad;
    for (const bool pipelined : {true, false}) {
        const ScratchPipeSystem sgd(w.model, kHw,
                                    spOptions(0.10, pipelined));
        const ScratchPipeSystem ada(adagrad, kHw,
                                    spOptions(0.10, pipelined));
        const double extra =
            ada.simulate(w.dataset, w.stats, w.iters).gpu_bytes -
            sgd.simulate(w.dataset, w.stats, w.iters).gpu_bytes;
        EXPECT_EQ(extra, static_cast<double>(w.model.trace.num_tables *
                                             uint64_t{sgd.slotsPerTable()} *
                                             w.model.embedding_dim *
                                             sizeof(float)))
            << (pipelined ? "scratchpipe" : "strawman");
    }
}

TEST(TimingScratchPipe, TrainBoundAtHighLocality)
{
    // With most lookups hitting, the GPU [Train] stage binds the
    // pipeline (paper Fig. 12(b), High cluster).
    Workload w(data::Locality::High);
    ScratchPipeSystem system(w.model, kHw, spOptions(0.10, true));
    const RunResult result = system.simulate(w.dataset, w.stats, w.iters);
    EXPECT_EQ(result.bottleneck, "Train");
}

TEST(TimingScratchPipe, HitRateReported)
{
    Workload high(data::Locality::High);
    Workload random(data::Locality::Random);
    ScratchPipeSystem sys_h(high.model, kHw, spOptions(0.10, true));
    ScratchPipeSystem sys_r(random.model, kHw, spOptions(0.10, true));
    const double hr_high =
        sys_h.simulate(high.dataset, high.stats, high.iters).hit_rate;
    const double hr_random =
        sys_r.simulate(random.dataset, random.stats, random.iters)
            .hit_rate;
    EXPECT_GT(hr_high, hr_random);
}

/** Paper-scale workload: Table I's comparison only holds at full
 *  geometry, where bandwidth terms dominate the fixed overheads. */
struct PaperWorkload
{
    explicit PaperWorkload(data::Locality locality,
                           uint64_t iterations = 6)
        : model([&] {
              ModelConfig m = ModelConfig::paperDefault();
              m.trace.locality = locality;
              m.trace.seed = 44;
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

TEST(TimingMultiGpu, FasterThanScratchPipeAtPaperScale)
{
    PaperWorkload w(data::Locality::Medium);
    MultiGpuSystem multi(w.model, kHw);
    ScratchPipeSystem scratchpipe(w.model, kHw, spOptions(0.10, true));
    const double t_multi =
        multi.simulate(w.dataset, w.stats, w.iters).seconds_per_iteration;
    const double t_sp =
        scratchpipe.simulate(w.dataset, w.stats, w.iters)
            .seconds_per_iteration;
    EXPECT_LT(t_multi, t_sp);
}

TEST(TimingMultiGpu, CostAdvantageGoesToScratchPipe)
{
    // Table I: 8 GPUs cost 8x more per hour but deliver far less than
    // 8x the speed, so ScratchPipe's $/iteration is lower.
    PaperWorkload w(data::Locality::Medium);
    MultiGpuSystem multi(w.model, kHw);
    ScratchPipeSystem scratchpipe(w.model, kHw, spOptions(0.10, true));
    const double t_multi =
        multi.simulate(w.dataset, w.stats, w.iters).seconds_per_iteration;
    const double t_sp =
        scratchpipe.simulate(w.dataset, w.stats, w.iters)
            .seconds_per_iteration;
    EXPECT_LT(t_sp * 3.06, t_multi * 24.48);
}

TEST(TimingMultiGpu, HotRowContentionRaisesTime)
{
    // Table I: the 8-GPU system gets slightly *slower* as locality
    // rises (duplicate-gradient serialization).
    PaperWorkload random(data::Locality::Random);
    PaperWorkload high(data::Locality::High);
    MultiGpuSystem sys_r(random.model, kHw), sys_h(high.model, kHw);
    const double t_r =
        sys_r.simulate(random.dataset, random.stats, random.iters)
            .seconds_per_iteration;
    const double t_h =
        sys_h.simulate(high.dataset, high.stats, high.iters)
            .seconds_per_iteration;
    EXPECT_GT(t_h, t_r);
}

TEST(TimingRegistry, AllSystemsSimulate)
{
    Workload w(data::Locality::Medium);
    const struct
    {
        const char *spec;
        const char *name;
    } systems[] = {{"hybrid", "Hybrid CPU-GPU"},
                   {"static:cache=0.05", "Static cache"},
                   {"strawman:cache=0.05", "Straw-man"},
                   {"scratchpipe:cache=0.05", "ScratchPipe"},
                   {"multigpu", "8-GPU"}};
    for (const auto &entry : systems) {
        const auto system =
            Registry::build(SystemSpec::parse(entry.spec), w.model, kHw);
        const RunResult result =
            system->simulate(w.dataset, w.stats, w.iters);
        EXPECT_GT(result.seconds_per_iteration, 0.0) << entry.spec;
        EXPECT_EQ(result.system_name, entry.name);
        EXPECT_EQ(result.iterations, w.iters);
    }
}

TEST(TimingRegistry, BusyTimesWithinIteration)
{
    Workload w(data::Locality::Medium);
    for (const char *spec :
         {"hybrid", "static:cache=0.05", "scratchpipe:cache=0.05",
          "multigpu"}) {
        const auto system =
            Registry::build(SystemSpec::parse(spec), w.model, kHw);
        const RunResult result =
            system->simulate(w.dataset, w.stats, w.iters);
        EXPECT_GE(result.busy.cpu_busy_seconds, 0.0);
        EXPECT_GE(result.busy.gpu_busy_seconds, 0.0);
        EXPECT_LE(result.busy.cpu_busy_seconds,
                  result.busy.iteration_seconds * 1.001)
            << spec;
    }
}

} // namespace
} // namespace sp::sys
