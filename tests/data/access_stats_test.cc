/** @file AccessStats histogram / ranking / coverage tests. */

#include <gtest/gtest.h>

#include <vector>

#include "common/logging.h"
#include "data/access_stats.h"

namespace sp::data
{
namespace
{

/** Add a one-sample batch holding `tables[t]` as table t's IDs; every
 *  table gathers the same number of rows. */
void
addIds(AccessStats &stats,
       const std::vector<std::vector<uint64_t>> &tables)
{
    std::vector<uint64_t> ids;
    for (const auto &table : tables)
        ids.insert(ids.end(), table.begin(), table.end());
    stats.addBatch({.batch_size = 1,
                    .lookups_per_table = tables[0].size(),
                    .all_ids = ids});
}

TEST(AccessStats, CountsAccumulate)
{
    AccessStats stats(1, 10);
    addIds(stats, {{1, 1, 3, 7}});
    addIds(stats, {{1, 3, 3, 9}});
    EXPECT_EQ(stats.counts(0)[1], 3u);
    EXPECT_EQ(stats.counts(0)[3], 3u);
    EXPECT_EQ(stats.counts(0)[7], 1u);
    EXPECT_EQ(stats.counts(0)[9], 1u);
    EXPECT_EQ(stats.counts(0)[0], 0u);
    EXPECT_EQ(stats.totalAccesses(0), 8u);
}

TEST(AccessStats, SortedCountsDescending)
{
    AccessStats stats(1, 5);
    addIds(stats, {{0, 0, 0, 2, 2, 4}});
    const auto sorted = stats.sortedCounts(0);
    EXPECT_EQ(sorted[0], 3u);
    EXPECT_EQ(sorted[1], 2u);
    EXPECT_EQ(sorted[2], 1u);
    EXPECT_EQ(sorted[3], 0u);
}

TEST(AccessStats, CoverageOfTopFraction)
{
    AccessStats stats(1, 10);
    // Row 0: 8 accesses, rows 1..3: 1 access each -> top 10% (1 row)
    // captures 8/11.
    addIds(stats, {{0, 0, 0, 0, 0, 0, 0, 0, 1, 2, 3}});
    EXPECT_NEAR(stats.coverage(0, 0.1), 8.0 / 11.0, 1e-12);
    EXPECT_NEAR(stats.coverage(0, 1.0), 1.0, 1e-12);
    EXPECT_DOUBLE_EQ(stats.coverage(0, 0.0), 0.0);
}

TEST(AccessStats, RankedRowsHottestFirst)
{
    AccessStats stats(1, 6);
    addIds(stats, {{5, 5, 5, 2, 2, 0}});
    const auto ranked = stats.rankedRows(0);
    EXPECT_EQ(ranked[0], 5u);
    EXPECT_EQ(ranked[1], 2u);
    EXPECT_EQ(ranked[2], 0u);
}

TEST(AccessStats, RankingTiesAreStableByRowId)
{
    AccessStats stats(1, 4);
    addIds(stats, {{3, 1}});
    const auto ranked = stats.rankedRows(0);
    // Rows 1 and 3 tie with one access; stable sort keeps 1 before 3.
    EXPECT_EQ(ranked[0], 1u);
    EXPECT_EQ(ranked[1], 3u);
}

TEST(AccessStats, UniqueRows)
{
    AccessStats stats(1, 10);
    addIds(stats, {{4, 4, 4, 8}});
    EXPECT_EQ(stats.uniqueRows(0), 2u);
}

TEST(AccessStats, MultipleTablesIndependent)
{
    AccessStats stats(2, 10);
    addIds(stats, {{1, 1}, {9, 8}});
    EXPECT_EQ(stats.totalAccesses(0), 2u);
    EXPECT_EQ(stats.totalAccesses(1), 2u);
    EXPECT_EQ(stats.counts(0)[9], 0u);
    EXPECT_EQ(stats.counts(1)[9], 1u);
    EXPECT_EQ(stats.counts(1)[1], 0u);
}

TEST(AccessStats, DatasetAccumulation)
{
    TraceConfig config;
    config.num_tables = 2;
    config.rows_per_table = 100;
    config.lookups_per_table = 2;
    config.batch_size = 4;
    config.locality = Locality::High;
    TraceDataset dataset(config, 5);

    AccessStats stats(2, 100);
    stats.addDataset(dataset);
    // 5 batches * 4 samples * 2 lookups per table.
    EXPECT_EQ(stats.totalAccesses(0), 40u);
    EXPECT_EQ(stats.totalAccesses(1), 40u);
}

TEST(AccessStats, HighLocalityBeatsUniformCoverage)
{
    TraceConfig config;
    config.num_tables = 1;
    config.rows_per_table = 10000;
    config.lookups_per_table = 8;
    config.batch_size = 64;
    TraceDataset high([&] {
        auto c = config;
        c.locality = Locality::High;
        return c;
    }(), 20);
    TraceDataset uniform([&] {
        auto c = config;
        c.locality = Locality::Random;
        return c;
    }(), 20);

    AccessStats high_stats(1, 10000), uniform_stats(1, 10000);
    high_stats.addDataset(high);
    uniform_stats.addDataset(uniform);
    EXPECT_GT(high_stats.coverage(0, 0.02),
              3.0 * uniform_stats.coverage(0, 0.02));
}

TEST(AccessStats, OutOfRangeIdPanics)
{
    AccessStats stats(1, 4);
    EXPECT_THROW(addIds(stats, {{4}}), PanicError);
}

TEST(AccessStats, TableIndexChecked)
{
    AccessStats stats(1, 4);
    EXPECT_THROW(stats.counts(1), PanicError);
    EXPECT_THROW(stats.totalAccesses(2), PanicError);
}

} // namespace
} // namespace sp::data
