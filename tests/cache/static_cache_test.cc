/** @file Static top-N cache tests. */

#include <gtest/gtest.h>

#include <vector>

#include "cache/static_cache.h"
#include "common/logging.h"

namespace sp::cache
{
namespace
{

emb::EmbeddingTable
rampTable(uint32_t rows, size_t dim)
{
    emb::EmbeddingTable table(rows, dim);
    for (uint32_t r = 0; r < rows; ++r)
        for (size_t d = 0; d < dim; ++d)
            table.row(r)[d] = static_cast<float>(r * 10 + d);
    return table;
}

TEST(StaticCache, QuerySplitsHitsAndMisses)
{
    const std::vector<uint64_t> cached = {2, 5, 9};
    StaticCache cache(cached, 4);
    const std::vector<uint64_t> ids = {5, 1, 9, 9, 7};
    const QuerySplit split = cache.query(ids);
    EXPECT_EQ(split.hits, 3u);
    EXPECT_EQ(split.misses, 2u);
}

TEST(StaticCache, EmptyQueryIsNoops)
{
    const std::vector<uint64_t> cached = {1};
    StaticCache cache(cached, 4);
    const QuerySplit split = cache.query(std::vector<uint64_t>{});
    EXPECT_EQ(split.hits, 0u);
    EXPECT_EQ(split.misses, 0u);
}

TEST(StaticCache, SlotLookup)
{
    const std::vector<uint64_t> cached = {10, 20, 30};
    StaticCache cache(cached, 2);
    EXPECT_EQ(cache.slotFor(10), 0u);
    EXPECT_EQ(cache.slotFor(20), 1u);
    EXPECT_EQ(cache.slotFor(30), 2u);
    EXPECT_EQ(cache.slotFor(40), RowIndex::kNotFound);
}

TEST(StaticCache, FillCopiesTableValues)
{
    auto table = rampTable(10, 3);
    const std::vector<uint64_t> cached = {4, 7};
    StaticCache cache(cached, 3);
    cache.fillFrom(table);
    auto accessor = cache.accessor();
    EXPECT_FLOAT_EQ(accessor.row(4)[0], 40.0f);
    EXPECT_FLOAT_EQ(accessor.row(7)[2], 72.0f);
}

TEST(StaticCache, FlushWritesBackUpdates)
{
    auto table = rampTable(10, 2);
    const std::vector<uint64_t> cached = {3};
    StaticCache cache(cached, 2);
    cache.fillFrom(table);

    auto accessor = cache.accessor();
    accessor.row(3)[0] = -99.0f; // train the cached copy
    EXPECT_FLOAT_EQ(table.row(3)[0], 30.0f); // table still stale

    cache.flushTo(table);
    EXPECT_FLOAT_EQ(table.row(3)[0], -99.0f);
    EXPECT_FLOAT_EQ(table.row(3)[1], 31.0f);
}

TEST(StaticCache, AccessorPanicsOnNonCachedRow)
{
    const std::vector<uint64_t> cached = {1};
    StaticCache cache(cached, 2);
    auto accessor = cache.accessor();
    EXPECT_THROW(accessor.row(2), PanicError);
}

TEST(StaticCache, TopNOfRankedRowsActsAsFrequencyCache)
{
    // IDs 0..9; cache the "hottest" 3 by construction.
    const std::vector<uint64_t> ranked = {0, 1, 2};
    StaticCache cache(ranked, 2);
    std::vector<uint64_t> ids;
    for (uint32_t i = 0; i < 10; ++i)
        ids.push_back(i);
    const QuerySplit split = cache.query(ids);
    EXPECT_EQ(split.hits, 3u);
    EXPECT_EQ(split.misses, 7u);
}

TEST(StaticCache, EmptyContentsFatal)
{
    const std::vector<uint64_t> none;
    EXPECT_THROW(StaticCache(none, 4), FatalError);
}

TEST(StaticCache, DimensionMismatchPanics)
{
    auto table = rampTable(10, 3);
    const std::vector<uint64_t> cached = {1};
    StaticCache cache(cached, 2);
    EXPECT_THROW(cache.fillFrom(table), PanicError);
    EXPECT_THROW(cache.flushTo(table), PanicError);
}

} // namespace
} // namespace sp::cache
