/** @file BatchStats unique-ID accounting tests. */

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <vector>

#include "common/logging.h"
#include "sys/batch_stats.h"

namespace sp::sys
{
namespace
{

/** Distinct IDs by sort + unique: the oracle for the bitmap count. */
size_t
sortedUniqueCount(std::span<const uint64_t> ids)
{
    std::vector<uint64_t> sorted(ids.begin(), ids.end());
    std::sort(sorted.begin(), sorted.end());
    return static_cast<size_t>(
        std::unique(sorted.begin(), sorted.end()) - sorted.begin());
}

data::TraceConfig
smallTrace()
{
    data::TraceConfig config;
    config.num_tables = 3;
    config.rows_per_table = 200;
    config.lookups_per_table = 4;
    config.batch_size = 16;
    config.locality = data::Locality::Medium;
    return config;
}

TEST(BatchStats, MatchesDirectCount)
{
    data::TraceDataset dataset(smallTrace(), 5);
    BatchStats stats(dataset, 5);
    for (uint64_t b = 0; b < 5; ++b) {
        for (size_t t = 0; t < 3; ++t) {
            EXPECT_EQ(stats.unique(b, t),
                      sortedUniqueCount(dataset.batch(b).ids(t)));
        }
    }
}

TEST(BatchStats, UniqueNeverExceedsIdCount)
{
    data::TraceDataset dataset(smallTrace(), 4);
    BatchStats stats(dataset, 4);
    for (uint64_t b = 0; b < 4; ++b)
        for (size_t t = 0; t < 3; ++t)
            EXPECT_LE(stats.unique(b, t), 64u); // 16 * 4 lookups
}

TEST(BatchStats, HighLocalityFewerUniques)
{
    auto high_config = smallTrace();
    high_config.locality = data::Locality::High;
    high_config.rows_per_table = 10000;
    auto uniform_config = high_config;
    uniform_config.locality = data::Locality::Random;

    data::TraceDataset high(high_config, 10);
    data::TraceDataset uniform(uniform_config, 10);
    BatchStats high_stats(high, 10), uniform_stats(uniform, 10);

    size_t high_total = 0, uniform_total = 0;
    for (uint64_t b = 0; b < 10; ++b) {
        for (size_t t = 0; t < 3; ++t) {
            high_total += high_stats.unique(b, t);
            uniform_total += uniform_stats.unique(b, t);
        }
    }
    EXPECT_LT(high_total, uniform_total);
}

TEST(BatchStats, RangeChecks)
{
    data::TraceDataset dataset(smallTrace(), 2);
    BatchStats stats(dataset, 2);
    EXPECT_EQ(stats.iterations(), 2u);
    EXPECT_THROW(stats.unique(2, 0), PanicError);
    EXPECT_THROW(stats.unique(0, 3), PanicError);
    EXPECT_THROW(BatchStats(dataset, 3), FatalError);
}

} // namespace
} // namespace sp::sys
