/** @file Gather/reduce/coalesce/scatter and distinct-count kernel tests
 *  (paper Fig. 2). */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "common/logging.h"
#include "data/dataset.h"
#include "emb/embedding_ops.h"

namespace sp::emb
{
namespace
{

EmbeddingTable
rampTable(uint32_t rows, size_t dim)
{
    EmbeddingTable table(rows, dim);
    for (uint32_t r = 0; r < rows; ++r)
        for (size_t d = 0; d < dim; ++d)
            table.row(r)[d] = static_cast<float>(r) + 0.1f * d;
    return table;
}

TEST(EmbeddingOps, GatherCopiesRows)
{
    auto table = rampTable(10, 3);
    const std::vector<uint64_t> ids = {7, 0, 7, 3};
    tensor::Matrix out(4, 3);
    gather(table, ids, out);
    EXPECT_FLOAT_EQ(out(0, 0), 7.0f);
    EXPECT_FLOAT_EQ(out(1, 0), 0.0f);
    EXPECT_FLOAT_EQ(out(2, 2), 7.2f);
    EXPECT_FLOAT_EQ(out(3, 1), 3.1f);
}

TEST(EmbeddingOps, GatherShapeChecked)
{
    auto table = rampTable(10, 3);
    const std::vector<uint64_t> ids = {1, 2};
    tensor::Matrix wrong(3, 3);
    EXPECT_THROW(gather(table, ids, wrong), PanicError);
}

TEST(EmbeddingOps, ReduceSumsGroups)
{
    tensor::Matrix gathered(4, 2);
    gathered(0, 0) = 1.0f;
    gathered(1, 0) = 2.0f;
    gathered(2, 0) = 10.0f;
    gathered(3, 0) = 20.0f;
    tensor::Matrix out(2, 2);
    reduceSum(gathered, 2, out);
    EXPECT_FLOAT_EQ(out(0, 0), 3.0f);
    EXPECT_FLOAT_EQ(out(1, 0), 30.0f);
}

TEST(EmbeddingOps, ReduceRequiresDivisibleRows)
{
    tensor::Matrix gathered(5, 2), out(2, 2);
    EXPECT_THROW(reduceSum(gathered, 2, out), PanicError);
}

TEST(EmbeddingOps, GatherReduceMatchesTwoStep)
{
    auto table = rampTable(20, 4);
    const std::vector<uint64_t> ids = {3, 3, 9, 1, 0, 17};
    tensor::Matrix gathered(6, 4), two_step(2, 4), fused(2, 4);
    gather(table, ids, gathered);
    reduceSum(gathered, 3, two_step);
    gatherReduce(table, ids, 3, fused);
    EXPECT_TRUE(tensor::Matrix::identical(two_step, fused));
}

TEST(EmbeddingOps, PaperFigure2Example)
{
    // Fig. 2(a): batch 0 gathers rows {0,4}, batch 1 gathers {0,2,5}.
    // With sum reduction the outputs are E[0]+E[4] and E[0]+E[2]+E[5].
    // (Realised with equal lookup counts by padding sample 0 with a
    // repeat of row 0 -- the reduction semantics are what matters.)
    auto table = rampTable(6, 2);
    const std::vector<uint64_t> ids = {0, 4, 0, 2, 5, 0};
    tensor::Matrix out(2, 2);
    gatherReduce(table, ids, 3, out);
    EXPECT_FLOAT_EQ(out(0, 0), 0.0f + 4.0f + 0.0f);
    EXPECT_FLOAT_EQ(out(1, 0), 2.0f + 5.0f + 0.0f);
}

TEST(EmbeddingOps, CoalesceSumsDuplicates)
{
    // Two samples, two lookups each; row 5 used by both samples.
    const std::vector<uint64_t> ids = {5, 1, 5, 2};
    tensor::Matrix grads(2, 2);
    grads(0, 0) = 1.0f;
    grads(0, 1) = 10.0f;
    grads(1, 0) = 2.0f;
    grads(1, 1) = 20.0f;

    const auto coalesced = duplicateAndCoalesce(ids, grads, 2);
    ASSERT_EQ(coalesced.ids.size(), 3u);
    EXPECT_EQ(coalesced.ids[0], 1u);
    EXPECT_EQ(coalesced.ids[1], 2u);
    EXPECT_EQ(coalesced.ids[2], 5u);
    // Row 5 accumulates both samples' gradients.
    EXPECT_FLOAT_EQ(coalesced.grads(2, 0), 3.0f);
    EXPECT_FLOAT_EQ(coalesced.grads(2, 1), 30.0f);
    // Rows 1 and 2 get their single sample's gradient.
    EXPECT_FLOAT_EQ(coalesced.grads(0, 0), 1.0f);
    EXPECT_FLOAT_EQ(coalesced.grads(1, 0), 2.0f);
}

TEST(EmbeddingOps, CoalesceWithinSampleDuplicates)
{
    // The same row twice within one sample doubles its gradient.
    const std::vector<uint64_t> ids = {3, 3};
    tensor::Matrix grads(1, 1);
    grads(0, 0) = 1.5f;
    const auto coalesced = duplicateAndCoalesce(ids, grads, 2);
    ASSERT_EQ(coalesced.ids.size(), 1u);
    EXPECT_FLOAT_EQ(coalesced.grads(0, 0), 3.0f);
}

TEST(EmbeddingOps, CoalesceMatchesNaiveScatterAdd)
{
    tensor::Rng rng(77);
    const size_t batch = 16, lookups = 5, dim = 3;
    const uint32_t rows = 12;
    std::vector<uint64_t> ids(batch * lookups);
    for (auto &id : ids)
        id = static_cast<uint32_t>(rng.uniformInt(rows));
    tensor::Matrix grads(batch, dim);
    grads.fillNormal(rng, 1.0f);

    // Naive reference: accumulate every lookup into a full-table grid.
    std::vector<double> reference(rows * dim, 0.0);
    for (size_t i = 0; i < ids.size(); ++i) {
        const size_t sample = i / lookups;
        for (size_t d = 0; d < dim; ++d)
            reference[ids[i] * dim + d] += grads(sample, d);
    }

    const auto coalesced = duplicateAndCoalesce(ids, grads, lookups);
    for (size_t i = 0; i < coalesced.ids.size(); ++i) {
        for (size_t d = 0; d < dim; ++d) {
            EXPECT_NEAR(coalesced.grads(i, d),
                        reference[coalesced.ids[i] * dim + d], 1e-4)
                << "row " << coalesced.ids[i] << " dim " << d;
        }
    }
}

TEST(EmbeddingOps, CoalescedIdsStrictlyAscending)
{
    tensor::Rng rng(78);
    std::vector<uint64_t> ids(64);
    for (auto &id : ids)
        id = static_cast<uint32_t>(rng.uniformInt(10));
    tensor::Matrix grads(8, 2);
    const auto coalesced = duplicateAndCoalesce(ids, grads, 8);
    for (size_t i = 1; i < coalesced.ids.size(); ++i)
        EXPECT_LT(coalesced.ids[i - 1], coalesced.ids[i]);
}

TEST(EmbeddingOps, SgdScatterAppliesUpdateOncePerRow)
{
    auto table = rampTable(6, 2);
    CoalescedGradients coalesced;
    coalesced.ids = {2, 4};
    coalesced.grads.resize(2, 2);
    coalesced.grads(0, 0) = 1.0f;
    coalesced.grads(1, 1) = 2.0f;
    sgdScatter(table, coalesced, 0.5f);
    EXPECT_FLOAT_EQ(table.row(2)[0], 2.0f - 0.5f);
    EXPECT_FLOAT_EQ(table.row(4)[1], 4.1f - 1.0f);
    EXPECT_FLOAT_EQ(table.row(3)[0], 3.0f); // untouched
}

TEST(EmbeddingOps, FullBackwardEquivalentToPerLookupSgd)
{
    // Coalesce-then-scatter must equal applying every duplicated
    // gradient individually (the algorithmic identity the paper's
    // Fig. 2(b) pipeline relies on).
    auto table_a = rampTable(10, 2);
    auto table_b = rampTable(10, 2);
    const std::vector<uint64_t> ids = {1, 5, 5, 9, 1, 1};
    tensor::Matrix grads(2, 2);
    grads(0, 0) = 0.5f;
    grads(0, 1) = -1.0f;
    grads(1, 0) = 2.0f;
    grads(1, 1) = 0.25f;
    const float lr = 0.1f;

    sgdScatter(table_a, duplicateAndCoalesce(ids, grads, 3), lr);

    for (size_t i = 0; i < ids.size(); ++i) {
        const size_t sample = i / 3;
        for (size_t d = 0; d < 2; ++d)
            table_b.row(ids[i])[d] -= lr * grads(sample, d);
    }

    for (uint32_t r = 0; r < 10; ++r)
        for (size_t d = 0; d < 2; ++d)
            EXPECT_NEAR(table_a.row(r)[d], table_b.row(r)[d], 1e-5);
}

/** Distinct IDs by sort + unique: the oracle for the bitmap count. */
size_t
sortedUniqueCount(std::span<const uint64_t> ids)
{
    std::vector<uint64_t> sorted(ids.begin(), ids.end());
    std::sort(sorted.begin(), sorted.end());
    return static_cast<size_t>(
        std::unique(sorted.begin(), sorted.end()) - sorted.begin());
}

bool
allZero(const std::vector<uint64_t> &seen)
{
    return std::all_of(seen.begin(), seen.end(),
                       [](uint64_t word) { return word == 0; });
}

TEST(EmbeddingOps, CountUnique)
{
    // 130 rows: the last of three words is partly outside the range.
    constexpr uint64_t kRows = 130;
    const std::vector<std::vector<uint64_t>> cases = {
        {},
        {4, 4, 1, 9, 1, 4},
        {7, 7, 7, 7, 7},
        {0, kRows - 1},
        {kRows - 1, 0, kRows - 1, 0},
        {63, 64, 127, 128, 129, 63, 128},
    };
    std::vector<uint64_t> seen;
    for (const auto &ids : cases) {
        EXPECT_EQ(countUnique(ids, kRows, seen), sortedUniqueCount(ids));
        EXPECT_EQ(seen.size(), 3u); // ceil(130 / 64) words
        EXPECT_TRUE(allZero(seen));
    }
}

TEST(EmbeddingOps, CountUniqueMatchesSortOracleOnEveryLocality)
{
    data::TraceConfig config;
    config.num_tables = 2;
    config.rows_per_table = 5000;
    config.lookups_per_table = 20;
    config.batch_size = 64;
    std::vector<uint64_t> seen;
    for (const auto locality : data::kAllLocalities) {
        config.locality = locality;
        const data::TraceDataset dataset(config, 4);
        for (uint64_t b = 0; b < dataset.numBatches(); ++b) {
            for (size_t t = 0; t < config.num_tables; ++t) {
                const auto ids = dataset.batch(b).ids(t);
                EXPECT_EQ(countUnique(ids, config.rows_per_table, seen),
                          sortedUniqueCount(ids))
                    << data::localityName(locality) << " batch " << b
                    << " table " << t;
            }
        }
    }
    EXPECT_TRUE(allZero(seen));
}

TEST(EmbeddingOps, CountUniqueReusesOneBitmap)
{
    // The second call shares the first call's rows: a bitmap left
    // dirty would count them as already seen.
    std::vector<uint64_t> seen;
    const std::vector<uint64_t> first = {3, 70, 3, 199};
    const std::vector<uint64_t> second = {70, 5, 199, 5, 3};
    EXPECT_EQ(countUnique(first, 200, seen), 3u);
    EXPECT_EQ(countUnique(second, 200, seen), 4u);
    EXPECT_TRUE(allZero(seen));
}

TEST(EmbeddingOps, CountUniqueOutOfRangeIdPanics)
{
    std::vector<uint64_t> seen;
    EXPECT_THROW(countUnique(std::vector<uint64_t>{1, 2, 100}, 100, seen),
                 PanicError);
    EXPECT_THROW(countUnique(std::vector<uint64_t>{UINT64_MAX}, 100, seen),
                 PanicError);
    // The panic leaves the bitmap clear for the next call.
    EXPECT_TRUE(allZero(seen));
    EXPECT_EQ(countUnique(std::vector<uint64_t>{1, 2}, 100, seen), 2u);
}

TEST(EmbeddingOps, UniqueIdsSorted)
{
    const std::vector<uint64_t> ids = {9, 2, 9, 0};
    const auto unique = uniqueIds(ids);
    ASSERT_EQ(unique.size(), 3u);
    EXPECT_EQ(unique[0], 0u);
    EXPECT_EQ(unique[1], 2u);
    EXPECT_EQ(unique[2], 9u);
}

TEST(EmbeddingOps, MismatchedIdCountPanics)
{
    tensor::Matrix grads(2, 2);
    const std::vector<uint64_t> ids = {1, 2, 3};
    EXPECT_THROW(duplicateAndCoalesce(ids, grads, 2), PanicError);
}

} // namespace
} // namespace sp::emb
