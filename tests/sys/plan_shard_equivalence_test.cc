/**
 * @file
 * Property tests of the sharded planning engine.
 *
 * The exact-equivalence contract: for ANY model geometry, locality,
 * policy, window shape, and cache size, planning with the mark passes
 * sharded over the pool produces byte-identical results to a fully
 * serial run. Configurations are drawn from a seeded RNG so every run
 * covers the same (arbitrary) corner of the space, and the comparison
 * is RunResult::toJson -- the same serialisation the CLI and goldens
 * use -- plus a controller-level check on the raw PlanResult
 * schedules.
 */

#include <gtest/gtest.h>

#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "core/controller.h"
#include "data/dataset.h"
#include "sys/experiment.h"
#include "sys/registry.h"

namespace sp::sys
{
namespace
{

const sim::HardwareConfig kHw = sim::HardwareConfig::paperTestbed();

/** A pool wide enough that shards really cross threads, whatever the
 *  host (results are width-independent by contract). */
void
widenPool()
{
    if (common::ThreadPool::global().size() < 4)
        common::ThreadPool::setGlobalThreads(4);
}

ModelConfig
randomModel(std::mt19937 &rng)
{
    ModelConfig model = ModelConfig::functionalScale();
    model.trace.num_tables =
        std::uniform_int_distribution<size_t>(1, 4)(rng);
    // Rows stay above the worst-case window working set (8 batches x
    // 240 IDs) so the §VI-D capacity bound can always be honoured.
    model.trace.rows_per_table =
        std::uniform_int_distribution<uint64_t>(2'500, 8'000)(rng);
    model.trace.lookups_per_table =
        std::uniform_int_distribution<size_t>(1, 5)(rng);
    model.trace.batch_size =
        std::uniform_int_distribution<size_t>(8, 48)(rng);
    model.trace.locality = data::kAllLocalities
        [std::uniform_int_distribution<size_t>(
            0, data::kAllLocalities.size() - 1)(rng)];
    model.trace.seed = std::uniform_int_distribution<uint64_t>(
        1, 1'000'000)(rng);
    return model;
}

/** Random scratchpad tunables, as a spec-option string. */
std::string
randomScratchpadOptions(std::mt19937 &rng)
{
    const char *policies[] = {"lru", "lfu", "fifo", "random"};
    std::ostringstream os;
    os << "cache=0."
       << std::uniform_int_distribution<int>(1, 3)(rng)  // 0.1 - 0.3
       << ",policy="
       << policies[std::uniform_int_distribution<size_t>(0, 3)(rng)]
       << ",past=" << std::uniform_int_distribution<int>(1, 4)(rng)
       << ",future=" << std::uniform_int_distribution<int>(0, 3)(rng)
       << ",warm=" << std::uniform_int_distribution<int>(0, 1)(rng);
    return os.str();
}

TEST(PlanShardEquivalence, RandomConfigsByteIdenticalAcrossShardWidths)
{
    widenPool();
    std::mt19937 rng(0xC0FFEE);
    for (int trial = 0; trial < 4; ++trial) {
        const ModelConfig model = randomModel(rng);
        const std::string base = randomScratchpadOptions(rng);

        ExperimentOptions serial_options;
        serial_options.iterations = 5;
        serial_options.warmup = 2;
        serial_options.jobs = 1;
        const ExperimentRunner serial_runner(model, kHw, serial_options);

        ExperimentOptions pooled_options = serial_options;
        pooled_options.jobs = 4;
        const ExperimentRunner pooled_runner(model, kHw, pooled_options);

        for (const char *system : {"scratchpipe", "strawman"}) {
            const std::string serial_spec =
                std::string(system) + ":" + base + ",shard=1";
            const std::string baseline =
                serial_runner.run(serial_spec).toJson();
            for (const uint32_t width : {1u, 2u, 7u, 16u}) {
                const std::string spec = std::string(system) + ":" +
                                         base + ",shard=" +
                                         std::to_string(width);
                EXPECT_EQ(baseline, serial_runner.run(spec).toJson())
                    << "trial " << trial << " " << spec << " (jobs 1)";
                EXPECT_EQ(baseline, pooled_runner.run(spec).toJson())
                    << "trial " << trial << " " << spec << " (jobs 4)";
            }
        }
    }
}

/** Raw-schedule comparison: two controllers, identical configs except
 *  the shard width, fed the same random batches, must emit identical
 *  fill/evict schedules (not just identical aggregates). */
TEST(PlanShardEquivalence, ControllerSchedulesIdenticalAtAnyShardWidth)
{
    widenPool();
    std::mt19937 rng(0xBEEF);
    for (const uint32_t width : {2u, 7u, 16u}) {
        core::ControllerConfig cc;
        // Above worstCaseSlots(3, 2, 520) so no plan can run out of
        // eligible victims.
        cc.num_slots = 3'200;
        cc.dim = 8;
        cc.past_window = 3;
        cc.future_window = 2;
        cc.backing = cache::SlotArray::Backing::Phantom;
        core::ScratchPipeController serial(cc);
        cc.plan_shards = width;
        core::ScratchPipeController sharded(cc);

        std::uniform_int_distribution<uint32_t> id(0, 4'000);
        // 520-ID batches: big enough (> 2 * 64-ID shard minimum x 4)
        // that the sharded path really splits.
        std::vector<std::vector<uint64_t>> batches(12);
        for (auto &ids : batches) {
            ids.resize(520);
            for (auto &value : ids)
                value = id(rng);
        }

        for (size_t b = 0; b < batches.size(); ++b) {
            std::vector<std::span<const uint64_t>> futures;
            for (size_t d = 1; d <= 2 && b + d < batches.size(); ++d)
                futures.emplace_back(batches[b + d]);
            const auto &expected = serial.plan(batches[b], futures);
            const core::PlanResult copy = expected; // next plan reuses it
            const auto &got = sharded.plan(batches[b], futures);
            ASSERT_EQ(copy.hits, got.hits) << "batch " << b;
            ASSERT_EQ(copy.misses, got.misses) << "batch " << b;
            ASSERT_EQ(copy.fills.size(), got.fills.size());
            for (size_t f = 0; f < copy.fills.size(); ++f) {
                ASSERT_EQ(copy.fills[f].id, got.fills[f].id);
                ASSERT_EQ(copy.fills[f].slot, got.fills[f].slot);
            }
            ASSERT_EQ(copy.evictions.size(), got.evictions.size());
            for (size_t e = 0; e < copy.evictions.size(); ++e) {
                ASSERT_EQ(copy.evictions[e].id, got.evictions[e].id);
                ASSERT_EQ(copy.evictions[e].slot, got.evictions[e].slot);
            }
        }
    }
}

} // namespace
} // namespace sp::sys
