/**
 * @file
 * The worked example of paper Figure 11, cycle by cycle.
 *
 * Figure 11 walks five pipeline cycles of a 5-slot scratchpad with a
 * 3-bit Hold mask (past-window only: marks survive two subsequent
 * plans, i.e. past_window = 2 in our encoding, future_window = 0) and
 * mini-batches of two sparse IDs. We replay the exact ID sequence and
 * assert the controller reproduces the figure's hit/miss decisions,
 * the delayed Hit-Map-vs-Storage semantics, and the eviction of
 * E[2021] at the 5th cycle.
 */

#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "core/controller.h"

namespace sp::core
{
namespace
{

constexpr std::span<const std::span<const uint64_t>> kNoFutures;

ControllerConfig
figure11Config()
{
    ControllerConfig config;
    config.num_slots = 5;
    config.past_window = 2; // the figure's 3-bit Hold mask
    config.future_window = 0;
    config.policy = cache::PolicyKind::Lru;
    return config;
}

TEST(PaperFigure11, FullFiveCycleWalk)
{
    ScratchPipeController controller(figure11Config());

    // 1st cycle: batch 1 = {7089, 2021}. Both miss; the scratchpad is
    // empty, so no write-backs are scheduled.
    const std::vector<uint64_t> batch1 = {7089, 2021};
    const auto plan1 = controller.plan(batch1, kNoFutures);
    EXPECT_EQ(plan1.hits, 0u);
    EXPECT_EQ(plan1.misses, 2u);
    EXPECT_EQ(plan1.fills.size(), 2u);
    EXPECT_TRUE(plan1.evictions.empty());

    // Figure 11(b): the Hit-Map already reflects batch 1's insertions
    // even though the Storage array is still vacant -- the
    // "purposefully asynchronous and delayed" update. Batch 2's query
    // of 7089 must therefore *hit*.
    EXPECT_TRUE(controller.isResident(7089));
    EXPECT_TRUE(controller.isResident(2021));

    // 2nd cycle: batch 2 = {3010, 7089} -> miss / hit.
    const std::vector<uint64_t> batch2 = {3010, 7089};
    const auto plan2 = controller.plan(batch2, kNoFutures);
    EXPECT_EQ(plan2.hits, 1u);
    EXPECT_EQ(plan2.misses, 1u);
    EXPECT_EQ(plan2.fills.size(), 1u);
    EXPECT_EQ(plan2.fills[0].id, 3010u);
    EXPECT_TRUE(plan2.evictions.empty());

    // 3rd cycle: batch 3 = {1017, 5382}. Both miss, filling the last
    // two vacant slots; still nothing to write back.
    const std::vector<uint64_t> batch3 = {1017, 5382};
    const auto plan3 = controller.plan(batch3, kNoFutures);
    EXPECT_EQ(plan3.hits, 0u);
    EXPECT_EQ(plan3.misses, 2u);
    EXPECT_TRUE(plan3.evictions.empty());

    // All five slots now hold {7089, 2021, 3010, 1017, 5382},
    // matching the figure's Hit-Map at the 3rd cycle.
    for (uint64_t id : {7089u, 2021u, 3010u, 1017u, 5382u})
        EXPECT_TRUE(controller.isResident(id)) << id;

    // 4th cycle: batch 4 = {7089, 1017} -> both hit, no movement.
    const std::vector<uint64_t> batch4 = {7089, 1017};
    const auto plan4 = controller.plan(batch4, kNoFutures);
    EXPECT_EQ(plan4.hits, 2u);
    EXPECT_EQ(plan4.misses, 0u);
    EXPECT_TRUE(plan4.fills.empty());
    EXPECT_TRUE(plan4.evictions.empty());

    // 5th cycle: batch 5 = {6547, 3010}. 3010 hits. 6547 misses and
    // must evict E[2021] -- the only slot whose Hold mask is "000"
    // after the 4th cycle (Figure 11(d,e)).
    const std::vector<uint64_t> batch5 = {6547, 3010};
    const auto plan5 = controller.plan(batch5, kNoFutures);
    EXPECT_EQ(plan5.hits, 1u);
    EXPECT_EQ(plan5.misses, 1u);
    ASSERT_EQ(plan5.evictions.size(), 1u);
    EXPECT_EQ(plan5.evictions[0].id, 2021u);
    EXPECT_FALSE(controller.isResident(2021));
    EXPECT_TRUE(controller.isResident(6547));

    // The new resident takes over the evicted slot, as in the figure
    // where (2021, 3) becomes (6547, 3).
    EXPECT_EQ(controller.slotOf(6547), plan5.evictions[0].slot);

    // 6th cycle (extrapolating the figure's Load column): batch 6 =
    // {9021, 1017}. 9021 misses; 5382 is now the only unheld row.
    const std::vector<uint64_t> batch6 = {9021, 1017};
    const auto plan6 = controller.plan(batch6, kNoFutures);
    EXPECT_EQ(plan6.hits, 1u);
    EXPECT_EQ(plan6.misses, 1u);
    ASSERT_EQ(plan6.evictions.size(), 1u);
    EXPECT_EQ(plan6.evictions[0].id, 5382u);

    // Lifetime statistics across the six planned batches.
    const auto &stats = controller.stats();
    EXPECT_EQ(stats.plans, 6u);
    EXPECT_EQ(stats.hits, 5u);
    EXPECT_EQ(stats.misses, 7u);
    EXPECT_EQ(stats.fills, 7u);
    EXPECT_EQ(stats.evictions, 2u);
}

TEST(PaperFigure11, HoldMaskProtectsInFlightBatches)
{
    // At the 5th cycle the figure's Hold masks show rows used by
    // batches 3-5 (1017, 5382, 7089, 3010, 6547) as held; none of
    // them may ever be selected as the victim.
    ScratchPipeController controller(figure11Config());
    const std::vector<std::vector<uint64_t>> batches = {
        {7089, 2021}, {3010, 7089}, {1017, 5382}, {7089, 1017},
        {6547, 3010}};
    std::vector<uint64_t> evicted;
    for (const auto &batch : batches) {
        for (const auto &evict : controller.plan(batch, kNoFutures).evictions)
            evicted.push_back(evict.id);
    }
    ASSERT_EQ(evicted.size(), 1u);
    EXPECT_EQ(evicted[0], 2021u);
}

} // namespace
} // namespace sp::core
