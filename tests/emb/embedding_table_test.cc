/** @file EmbeddingTable storage tests. */

#include <gtest/gtest.h>

#include "common/logging.h"
#include "emb/embedding_table.h"

namespace sp::emb
{
namespace
{

TEST(EmbeddingTable, DenseGeometry)
{
    EmbeddingTable table(100, 8);
    EXPECT_EQ(table.rows(), 100u);
    EXPECT_EQ(table.dim(), 8u);
    EXPECT_EQ(table.rowBytes(), 32u);
}

TEST(EmbeddingTable, DenseStartsZeroed)
{
    EmbeddingTable table(10, 4);
    for (uint32_t r = 0; r < 10; ++r)
        for (size_t d = 0; d < 4; ++d)
            EXPECT_EQ(table.row(r)[d], 0.0f);
}

TEST(EmbeddingTable, RowsAreWritable)
{
    EmbeddingTable table(10, 4);
    table.row(3)[2] = 7.5f;
    EXPECT_EQ(table.row(3)[2], 7.5f);
    EXPECT_EQ(table.row(3)[1], 0.0f);
    EXPECT_EQ(table.row(4)[2], 0.0f);
}

TEST(EmbeddingTable, RowsAreContiguousPerRow)
{
    EmbeddingTable table(10, 4);
    EXPECT_EQ(table.row(0) + 4, table.row(1));
}

TEST(EmbeddingTable, InitRandomIsDeterministic)
{
    EmbeddingTable a(50, 8), b(50, 8);
    tensor::Rng ra(5), rb(5);
    a.initRandom(ra, 0.1f);
    b.initRandom(rb, 0.1f);
    EXPECT_TRUE(EmbeddingTable::identical(a, b));
}

TEST(EmbeddingTable, OutOfRangeRowPanics)
{
    EmbeddingTable table(10, 4);
    EXPECT_THROW(table.row(10), PanicError);
}

TEST(EmbeddingTable, HugeDenseTableRefused)
{
    EXPECT_THROW(EmbeddingTable(10'000'000'000ull, 128), FatalError);
}

TEST(EmbeddingTable, IdenticalDetectsDifference)
{
    EmbeddingTable a(10, 4), b(10, 4);
    EXPECT_TRUE(EmbeddingTable::identical(a, b));
    b.row(7)[1] = 1e-20f;
    EXPECT_FALSE(EmbeddingTable::identical(a, b));
}

TEST(EmbeddingTable, InvalidGeometryFatal)
{
    EXPECT_THROW(EmbeddingTable(0, 4), FatalError);
    EXPECT_THROW(EmbeddingTable(4, 0), FatalError);
}

} // namespace
} // namespace sp::emb
