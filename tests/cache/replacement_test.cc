/** @file Replacement-policy behaviour tests (all four policies). */

#include <gtest/gtest.h>

#include <set>
#include <variant>

#include "cache/replacement.h"
#include "common/logging.h"

namespace sp::cache
{
namespace
{

const auto kAlwaysEligible = [](uint32_t) { return true; };

class AllPolicies : public ::testing::TestWithParam<PolicyKind>
{
  protected:
    /** Runs `check` on a `slots`-slot policy of the parameter's kind,
     *  typed as its concrete class. */
    template <typename Check>
    void
    withPolicy(uint32_t slots, const Check &check)
    {
        Policy policy = makePolicy(GetParam(), slots, 7);
        std::visit(check, policy);
    }
};

TEST_P(AllPolicies, VictimAlwaysEligible)
{
    withPolicy(64, [](auto &policy) {
        for (int round = 0; round < 200; ++round) {
            // Only even slots eligible this round.
            const uint32_t victim = policy.chooseVictim(
                [](uint32_t s) { return s % 2 == 0; });
            ASSERT_NE(victim, kNoVictim);
            EXPECT_EQ(victim % 2, 0u);
            policy.touch(victim);
        }
    });
}

TEST_P(AllPolicies, NoEligibleSlotReturnsSentinel)
{
    withPolicy(16, [](auto &policy) {
        EXPECT_EQ(policy.chooseVictim([](uint32_t) { return false; }),
                  kNoVictim);
    });
}

TEST_P(AllPolicies, SingleEligibleSlotFound)
{
    withPolicy(256, [](auto &policy) {
        for (int i = 0; i < 50; ++i)
            policy.touch(static_cast<uint32_t>(i % 256));
        const uint32_t victim =
            policy.chooseVictim([](uint32_t s) { return s == 137; });
        EXPECT_EQ(victim, 137u);
    });
}

TEST_P(AllPolicies, VictimWithinRange)
{
    withPolicy(8, [](auto &policy) {
        for (int i = 0; i < 100; ++i) {
            const uint32_t victim = policy.chooseVictim(kAlwaysEligible);
            ASSERT_LT(victim, 8u);
            policy.touch(victim);
        }
    });
}

TEST_P(AllPolicies, KindReportsConstruction)
{
    withPolicy(4, [this](const auto &policy) {
        EXPECT_EQ(policy.kind(), GetParam());
    });
}

INSTANTIATE_TEST_SUITE_P(Policies, AllPolicies,
                         ::testing::Values(PolicyKind::Lru,
                                           PolicyKind::Lfu,
                                           PolicyKind::Random,
                                           PolicyKind::Fifo),
                         [](const auto &info) {
                             return policyName(info.param);
                         });

TEST(LruPolicy, EvictsLeastRecentlyTouched)
{
    LruPolicy policy(4);
    // Touch everything, then re-touch all but slot 2.
    for (uint32_t s = 0; s < 4; ++s)
        policy.touch(s);
    policy.touch(0);
    policy.touch(1);
    policy.touch(3);
    EXPECT_EQ(policy.chooseVictim(kAlwaysEligible), 2u);
}

TEST(LruPolicy, UntouchedSlotsEvictedFirst)
{
    LruPolicy policy(4);
    policy.touch(0);
    policy.touch(1);
    // Slots 2 and 3 never touched; the initial order makes 3 coldest.
    EXPECT_EQ(policy.chooseVictim(kAlwaysEligible), 3u);
}

TEST(LruPolicy, SkipsIneligibleColderSlots)
{
    LruPolicy policy(4);
    for (uint32_t s = 0; s < 4; ++s)
        policy.touch(s);
    // Coldest is 0, but it is held; expect the next coldest, 1.
    EXPECT_EQ(policy.chooseVictim([](uint32_t s) { return s != 0; }), 1u);
}

TEST(LfuPolicy, PrefersLowFrequencySlots)
{
    LfuPolicy policy(16, 9);
    // Slot 5 touched once, everything else many times.
    for (uint32_t s = 0; s < 16; ++s) {
        const int touches = s == 5 ? 1 : 50;
        for (int i = 0; i < touches; ++i)
            policy.touch(s);
    }
    // Sampled LFU is approximate; across repeats it must pick the cold
    // slot in the clear majority of draws.
    int hits = 0;
    for (int round = 0; round < 20; ++round) {
        if (policy.chooseVictim(kAlwaysEligible) == 5u)
            ++hits;
    }
    EXPECT_GE(hits, 15);
}

TEST(FifoPolicy, CyclesThroughSlots)
{
    FifoPolicy policy(3);
    EXPECT_EQ(policy.chooseVictim(kAlwaysEligible), 0u);
    EXPECT_EQ(policy.chooseVictim(kAlwaysEligible), 1u);
    EXPECT_EQ(policy.chooseVictim(kAlwaysEligible), 2u);
    EXPECT_EQ(policy.chooseVictim(kAlwaysEligible), 0u);
}

TEST(RandomPolicy, SpreadsVictimChoices)
{
    RandomPolicy policy(32, 13);
    std::set<uint32_t> seen;
    for (int i = 0; i < 200; ++i)
        seen.insert(policy.chooseVictim(kAlwaysEligible));
    EXPECT_GT(seen.size(), 20u);
}

TEST(Policy, NamesRoundTrip)
{
    for (PolicyKind kind : {PolicyKind::Lru, PolicyKind::Lfu,
                            PolicyKind::Random, PolicyKind::Fifo})
        EXPECT_EQ(policyFromName(policyName(kind)), kind);
}

TEST(Policy, UnknownNameFatal)
{
    EXPECT_THROW(policyFromName("clock"), FatalError);
}

} // namespace
} // namespace sp::cache
