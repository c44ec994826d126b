/** @file Warm-start (steady-state) controller initialisation tests. */

#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "common/logging.h"
#include "core/controller.h"
#include "tensor/rng.h"

namespace sp::core
{
namespace
{

constexpr std::span<const std::span<const uint64_t>> kNoFutures;

ControllerConfig
warmConfig(uint32_t slots)
{
    ControllerConfig config;
    config.num_slots = slots;
    config.warm_start = true;
    return config;
}

TEST(WarmStart, HottestRanksResidentImmediately)
{
    ScratchPipeController controller(warmConfig(100));
    for (uint32_t id = 0; id < 100; ++id) {
        EXPECT_TRUE(controller.isResident(id)) << id;
        EXPECT_EQ(controller.keyOfSlot(id), id);
    }
    EXPECT_FALSE(controller.isResident(100));
}

TEST(WarmStart, FirstBatchOfHotIdsHitsEverything)
{
    ScratchPipeController controller(warmConfig(100));
    const std::vector<uint64_t> hot = {0, 3, 7, 42, 99};
    const auto plan = controller.plan(hot, kNoFutures);
    EXPECT_EQ(plan.hits, hot.size());
    EXPECT_EQ(plan.misses, 0u);
    EXPECT_TRUE(plan.fills.empty());
}

TEST(WarmStart, ColdMissEvictsColdestRank)
{
    // Slot 0 is MRU, slot n-1 is LRU: a miss into a fully warm cache
    // must evict the highest (coldest) rank.
    ScratchPipeController controller(warmConfig(10));
    const std::vector<uint64_t> ids = {1000};
    const auto plan = controller.plan(ids, kNoFutures);
    ASSERT_EQ(plan.evictions.size(), 1u);
    EXPECT_EQ(plan.evictions[0].id, 9u);
    EXPECT_TRUE(controller.isResident(1000));
    EXPECT_FALSE(controller.isResident(9));
}

TEST(WarmStart, FillsEqualEvictionsFromTheStart)
{
    // Steady state means every fill displaces a resident row: there
    // are no free slots to hide cold-start traffic.
    ScratchPipeController controller(warmConfig(64));
    tensor::Rng rng(3);
    for (int b = 0; b < 20; ++b) {
        std::vector<uint64_t> ids(8);
        for (auto &id : ids)
            id = static_cast<uint32_t>(rng.uniformInt(100000));
        controller.plan(ids, kNoFutures);
    }
    const auto &stats = controller.stats();
    EXPECT_EQ(stats.fills, stats.evictions);
    EXPECT_GT(stats.fills, 0u);
}

TEST(WarmStart, ColdControllerStartsEmptyByDefault)
{
    ControllerConfig config = warmConfig(10);
    config.warm_start = false;
    ScratchPipeController controller(config);
    for (uint32_t id = 0; id < 10; ++id)
        EXPECT_FALSE(controller.isResident(id));
}

TEST(WarmStart, WindowProtectionStillApplies)
{
    // Even from a warm cache, in-window rows must never be evicted.
    ScratchPipeController controller(warmConfig(8));
    const std::vector<uint64_t> batch_a = {0, 1, 2, 3};
    controller.plan(batch_a, kNoFutures);
    // A burst of misses must spare batch_a's slots (past window = 3).
    const std::vector<uint64_t> burst = {100, 101, 102, 103};
    const auto plan = controller.plan(burst, kNoFutures);
    for (const auto &evict : plan.evictions) {
        EXPECT_GE(evict.id, 4u)
            << "evicted a row held by the previous batch";
    }
}

} // namespace
} // namespace sp::core
