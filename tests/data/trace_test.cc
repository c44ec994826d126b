/** @file TraceGenerator determinism and geometry tests. */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/logging.h"
#include "data/trace.h"

namespace sp::data
{
namespace
{

TraceConfig
smallConfig()
{
    TraceConfig config;
    config.num_tables = 3;
    config.rows_per_table = 1000;
    config.lookups_per_table = 4;
    config.batch_size = 16;
    config.locality = Locality::Medium;
    config.seed = 11;
    config.dense_features = 5;
    return config;
}

TEST(Trace, BatchGeometry)
{
    TraceGenerator gen(smallConfig());
    const std::vector<uint64_t> record = gen.makeRecord(2);
    EXPECT_EQ(record.size(), 1u + 3 * 64); // index word + 3 x 16 * 4
    const MiniBatch batch = MiniBatch::fromRecord(record, gen.config());
    EXPECT_EQ(batch.index, 2u);
    EXPECT_EQ(batch.numTables(), 3u);
    EXPECT_EQ(batch.batch_size, 16u);
    EXPECT_EQ(batch.lookups_per_table, 4u);
    for (size_t t = 0; t < batch.numTables(); ++t)
        EXPECT_EQ(batch.ids(t).size(), 64u);
}

TEST(Trace, IdsWithinTableRange)
{
    TraceGenerator gen(smallConfig());
    for (uint64_t b = 0; b < 10; ++b) {
        const std::vector<uint64_t> record = gen.makeRecord(b);
        for (size_t i = 1; i < record.size(); ++i) // past the index
            EXPECT_LT(record[i], 1000u);
    }
}

TEST(Trace, DeterministicPerIndex)
{
    TraceGenerator a(smallConfig()), b(smallConfig());
    // Generate out of order: batch 5 must not depend on history.
    const std::vector<uint64_t> b5_first = a.makeRecord(5);
    a.makeRecord(0);
    EXPECT_EQ(b5_first, a.makeRecord(5));
    EXPECT_EQ(b5_first, b.makeRecord(5));
}

TEST(Trace, DifferentBatchesDiffer)
{
    TraceGenerator gen(smallConfig());
    const std::vector<uint64_t> a = gen.makeRecord(0);
    const std::vector<uint64_t> b = gen.makeRecord(1);
    EXPECT_FALSE(std::equal(a.begin() + 1, a.end(), b.begin() + 1));
}

TEST(Trace, DifferentSeedsDiffer)
{
    TraceConfig other = smallConfig();
    other.seed = 12;
    TraceGenerator a(smallConfig()), b(other);
    EXPECT_NE(a.makeRecord(0), b.makeRecord(0));
}

TEST(Trace, TablesHaveIndependentStreams)
{
    TraceGenerator gen(smallConfig());
    const std::vector<uint64_t> record = gen.makeRecord(0);
    const MiniBatch batch = MiniBatch::fromRecord(record, gen.config());
    EXPECT_FALSE(std::ranges::equal(batch.ids(0), batch.ids(1)));
}

TEST(Trace, PerTableExponentOverride)
{
    TraceConfig config = smallConfig();
    config.per_table_exponents = {0.0, 0.5, 1.2};
    TraceGenerator gen(config);
    EXPECT_DOUBLE_EQ(gen.tableExponent(0), 0.0);
    EXPECT_DOUBLE_EQ(gen.tableExponent(1), 0.5);
    EXPECT_DOUBLE_EQ(gen.tableExponent(2), 1.2);
}

TEST(Trace, PerTableExponentSizeMismatchFatal)
{
    TraceConfig config = smallConfig();
    config.per_table_exponents = {0.0, 0.5};
    EXPECT_THROW(TraceGenerator{config}, FatalError);
}

TEST(Trace, NegativeTableExponentFatal)
{
    // A trace file's header carries the exponents, so opening one with
    // an exponent no Zipf draw accepts fails at construction.
    TraceConfig config = smallConfig();
    config.per_table_exponents = {0.5, -0.1, 1.2};
    EXPECT_THROW(TraceGenerator{config}, FatalError);
}

TEST(Trace, DenseFeatureGeometryAndDeterminism)
{
    TraceGenerator gen(smallConfig());
    const auto dense = gen.makeDenseFeatures(3);
    EXPECT_EQ(dense.rows(), 16u);
    EXPECT_EQ(dense.cols(), 5u);
    EXPECT_TRUE(
        tensor::Matrix::identical(dense, gen.makeDenseFeatures(3)));
    EXPECT_FALSE(
        tensor::Matrix::identical(dense, gen.makeDenseFeatures(4)));
}

TEST(Trace, LabelsAreBinaryAndDeterministic)
{
    TraceGenerator gen(smallConfig());
    const auto labels = gen.makeLabels(2);
    EXPECT_EQ(labels.rows(), 16u);
    EXPECT_EQ(labels.cols(), 1u);
    for (size_t i = 0; i < labels.rows(); ++i)
        EXPECT_TRUE(labels(i, 0) == 0.0f || labels(i, 0) == 1.0f);
    EXPECT_TRUE(tensor::Matrix::identical(labels, gen.makeLabels(2)));
}

TEST(Trace, LabelsHaveBothClasses)
{
    TraceConfig config = smallConfig();
    config.batch_size = 256;
    TraceGenerator gen(config);
    const auto labels = gen.makeLabels(0);
    int positives = 0;
    for (size_t i = 0; i < labels.rows(); ++i)
        positives += labels(i, 0) > 0.5f ? 1 : 0;
    EXPECT_GT(positives, 20);
    EXPECT_LT(positives, 236);
}

TEST(Trace, ConfigHelpers)
{
    const TraceConfig config = smallConfig();
    EXPECT_EQ(config.idsPerTable(), 64u);
    EXPECT_EQ(config.idsPerBatch(), 192u);
}

TEST(Trace, InvalidConfigsFatal)
{
    TraceConfig config = smallConfig();
    config.num_tables = 0;
    EXPECT_THROW(TraceGenerator{config}, FatalError);

    config = smallConfig();
    config.batch_size = 0;
    EXPECT_THROW(TraceGenerator{config}, FatalError);

    config = smallConfig();
    config.lookups_per_table = 0;
    EXPECT_THROW(TraceGenerator{config}, FatalError);
}

} // namespace
} // namespace sp::data
