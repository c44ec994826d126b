/**
 * @file
 * The SP_ASSERT checked-invariant layer (cmake -DSP_CHECK=ON).
 *
 * These tests run in BOTH build flavors and assert the correct
 * behavior for whichever one is active: enabled builds must throw
 * PanicError on a violated SP_ASSERT, disabled builds must not even
 * evaluate the condition. The invariant-bearing code paths (Hit-Map
 * backward-shift erase, TraceView header validation) are then churned
 * hard enough that a broken invariant would trip its check in the
 * SP_CHECK=ON CI jobs.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <random>
#include <set>
#include <vector>

#include "cache/hit_map.h"
#include "common/logging.h"
#include "data/dataset.h"
#include "data/trace_view.h"

namespace sp
{
namespace
{

TEST(CheckedInvariants, BuildFlagMatchesCompiledBehavior)
{
#ifdef SP_CHECK_INVARIANTS
    EXPECT_TRUE(kCheckedInvariants);
#else
    EXPECT_FALSE(kCheckedInvariants);
#endif
}

TEST(CheckedInvariants, ViolatedAssertPanicsOnlyWhenEnabled)
{
    const auto violate = [] { SP_ASSERT(1 + 1 == 3, "math still works"); };
    if (kCheckedInvariants) {
        try {
            violate();
            FAIL() << "SP_ASSERT did not throw in a checked build";
        } catch (const PanicError &err) {
            EXPECT_NE(std::string(err.what()).find("SP_ASSERT"),
                      std::string::npos)
                << err.what();
            EXPECT_NE(std::string(err.what()).find("math still works"),
                      std::string::npos)
                << err.what();
        }
    } else {
        EXPECT_NO_THROW(violate());
    }
}

TEST(CheckedInvariants, SatisfiedAssertIsAlwaysSilent)
{
    EXPECT_NO_THROW(SP_ASSERT(2 + 2 == 4, "arithmetic"));
}

TEST(CheckedInvariants, ConditionIsNotEvaluatedWhenDisabled)
{
    // Release builds must pay nothing for a check: the condition is
    // parsed but never run. Count evaluations through a side effect.
    int evaluations = 0;
    const auto probe = [&evaluations] {
        ++evaluations;
        return true;
    };
    SP_ASSERT(probe(), "side-effect probe");
    EXPECT_EQ(evaluations, kCheckedInvariants ? 1 : 0);
}

// Churn insert/erase so the backward-shift chain check (re-probing the
// whole cluster after every erase) runs across long collision chains.
// A deterministic keyset keeps the test bit-stable across builds.
TEST(CheckedInvariants, HitMapEraseChurnKeepsChainsProbeable)
{
    cache::HitMap map(16);
    std::mt19937 rng(1234);
    std::vector<uint64_t> live;
    std::set<uint64_t> seen;

    for (int round = 0; round < 2000; ++round) {
        const bool insert = live.size() < 64 ||
                            (rng() % 3 != 0 && live.size() < 512);
        if (insert) {
            uint64_t key = rng() % 4096;
            while (key == 0xffffffffu || !seen.insert(key).second)
                key = rng() % 4096;
            map.insert(key, static_cast<uint32_t>(live.size()));
            live.push_back(key);
        } else {
            const size_t victim = rng() % live.size();
            map.erase(live[victim]);
            seen.erase(live[victim]);
            live[victim] = live.back();
            live.pop_back();
        }
    }
    EXPECT_EQ(map.size(), live.size());
    for (const uint64_t key : live)
        EXPECT_NE(map.find(key), cache::HitMap::kNotFound) << key;
}

TEST(CheckedInvariants, TraceViewRoundTripSatisfiesSizeInvariant)
{
    if (!data::TraceView::supported())
        GTEST_SKIP() << "mmap views unsupported on this platform";

    namespace fs = std::filesystem;
    const fs::path path =
        fs::path(::testing::TempDir()) / "sp_checked_invariants.sptrace";
    fs::remove(path);

    data::TraceConfig config;
    config.num_tables = 2;
    config.rows_per_table = 300;
    config.lookups_per_table = 3;
    config.batch_size = 8;
    config.seed = 17;
    const data::TraceDataset dataset(config, 4);
    ASSERT_TRUE(dataset.saveTo(path.string()).ok());

    // open() re-derives the expected file size from the header; the
    // SP_CHECK build asserts the two agree before any ids() access.
    const data::TraceDataset mapped =
        data::TraceDataset::mapped(path.string(), 4);
    ASSERT_EQ(mapped.numBatches(), 4u);
    for (uint64_t b = 0; b < 4; ++b)
        EXPECT_TRUE(mapped.batch(b).idsEqual(dataset.batch(b)))
            << "batch " << b;
    fs::remove(path);
}

} // namespace
} // namespace sp
