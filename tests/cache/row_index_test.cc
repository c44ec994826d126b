/** @file RowIndex unit tests + randomized model check. */

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "cache/row_index.h"
#include "common/logging.h"
#include "tensor/rng.h"

namespace sp::cache
{
namespace
{

constexpr uint64_t kWide = uint64_t{1} << 32;

TEST(RowIndex, EmptyOnConstruction)
{
    const RowIndex index;
    EXPECT_EQ(index.size(), 0u);
    EXPECT_EQ(index.find(0), RowIndex::kNotFound);
    EXPECT_EQ(index.find(42), RowIndex::kNotFound);
    EXPECT_EQ(index.memoryBytes(), 0u);
}

TEST(RowIndex, InsertFindEraseRoundTrip)
{
    RowIndex index;
    index.insert(10, 100);
    index.insert(20, 200);
    EXPECT_EQ(index.size(), 2u);
    EXPECT_EQ(index.find(10), 100u);
    EXPECT_EQ(index.find(20), 200u);
    EXPECT_FALSE(index.contains(30));
    index.erase(10);
    EXPECT_FALSE(index.contains(10));
    EXPECT_EQ(index.find(20), 200u);
    index.insert(10, 7);
    EXPECT_EQ(index.find(10), 7u);
    EXPECT_EQ(index.size(), 2u);
}

TEST(RowIndex, IdsAcrossThe32BitBoundaryDoNotAlias)
{
    // 1 and 2^32 + 1, and 2^32 - 1 and 2^32, share their low 32 bits
    // or sit on either side of the boundary: four distinct rows.
    RowIndex index;
    index.insert(1, 0);
    index.insert(kWide + 1, 1);
    index.insert(0xffffffffull, 2);
    index.insert(kWide, 3);
    EXPECT_EQ(index.find(1), 0u);
    EXPECT_EQ(index.find(kWide + 1), 1u);
    EXPECT_EQ(index.find(0xffffffffull), 2u);
    EXPECT_EQ(index.find(kWide), 3u);
    EXPECT_EQ(index.find(kWide + 2), RowIndex::kNotFound);
    EXPECT_EQ(index.find(2), RowIndex::kNotFound);
    index.erase(kWide + 1);
    EXPECT_EQ(index.find(1), 0u);
    EXPECT_EQ(index.find(kWide + 1), RowIndex::kNotFound);
}

TEST(RowIndex, FindOnAnUntouchedPageAllocatesNothing)
{
    RowIndex index;
    index.insert(5, 0);
    const size_t bytes = index.memoryBytes();
    EXPECT_GE(bytes, RowIndex::kPageRows * sizeof(uint32_t));
    // An unallocated page inside the directory, then IDs far past it.
    index.insert(3 * RowIndex::kPageRows, 1);
    const size_t two_pages = index.memoryBytes();
    EXPECT_EQ(index.find(RowIndex::kPageRows + 5), RowIndex::kNotFound);
    EXPECT_EQ(index.find(kWide), RowIndex::kNotFound);
    EXPECT_EQ(index.find(uint64_t{1} << 62), RowIndex::kNotFound);
    EXPECT_EQ(index.memoryBytes(), two_pages);
    EXPECT_GE(two_pages - bytes, RowIndex::kPageRows * sizeof(uint32_t));
    // Prefetches of an untouched page, the first ID past the directory
    // (pages 0..3) and the largest ID allocate nothing either.
    index.prefetch(RowIndex::kPageRows + 5);
    index.prefetch(4 * RowIndex::kPageRows);
    index.prefetch(~uint64_t{0});
    index.prefetch(5);
    EXPECT_EQ(index.memoryBytes(), two_pages);
    EXPECT_EQ(index.size(), 2u);
    EXPECT_EQ(index.find(5), 0u);
}

TEST(RowIndex, DoubleInsertPanics)
{
    RowIndex index;
    index.insert(9, 1);
    EXPECT_THROW(index.insert(9, 2), PanicError);
    EXPECT_EQ(index.find(9), 1u);
    // kNotFound marks an absent row, so it cannot be stored.
    EXPECT_THROW(index.insert(10, RowIndex::kNotFound), PanicError);
    EXPECT_EQ(index.size(), 1u);
}

TEST(RowIndex, EraseOfAnAbsentIdPanics)
{
    RowIndex index;
    EXPECT_THROW(index.erase(3), PanicError);
    index.insert(3, 0);
    // Absent on an allocated page, past the directory, erased twice.
    EXPECT_THROW(index.erase(4), PanicError);
    EXPECT_THROW(index.erase(kWide), PanicError);
    index.erase(3);
    EXPECT_THROW(index.erase(3), PanicError);
    EXPECT_EQ(index.size(), 0u);
}

TEST(RowIndex, ForEachVisitsExactlyTheLivePairs)
{
    // Random inserts and erases over four pages, two of them meeting
    // at 2^32, checked against std::map after every op; then forEach
    // must visit exactly the model's pairs in increasing ID order.
    RowIndex index;
    std::map<uint64_t, uint32_t> model;
    tensor::Rng rng(23);
    const uint64_t bases[] = {0, kWide - 1000, uint64_t{5} << 32};
    for (uint32_t op = 0; op < 20000; ++op) {
        const uint64_t id = bases[rng.uniformInt(3)] + rng.uniformInt(2000);
        const auto it = model.find(id);
        if (it == model.end()) {
            index.insert(id, op);
            model.emplace(id, op);
        } else if (rng.uniformInt(2) == 0) {
            index.erase(id);
            model.erase(it);
        }
        ASSERT_EQ(index.size(), model.size());
        ASSERT_EQ(index.find(id),
                  model.contains(id) ? model.at(id) : RowIndex::kNotFound);
    }
    using Pairs = std::vector<std::pair<uint64_t, uint32_t>>;
    Pairs visited;
    index.forEach([&visited](uint64_t id, uint32_t slot) {
        visited.emplace_back(id, slot);
    });
    EXPECT_EQ(visited, Pairs(model.begin(), model.end()));
}

} // namespace
} // namespace sp::cache
