/** @file TraceDataset look-ahead and serialization tests. */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>

#include <unistd.h>

#include "common/logging.h"
#include "data/dataset.h"
#include "data/trace_view.h"

namespace sp::data
{
namespace
{

TraceConfig
smallConfig()
{
    TraceConfig config;
    config.num_tables = 2;
    config.rows_per_table = 500;
    config.lookups_per_table = 3;
    config.batch_size = 8;
    config.locality = Locality::High;
    config.seed = 21;
    return config;
}

/** A trace file private to the running test: ctest runs every case
 *  as its own process, so a shared name would race under -j. */
class TempFile
{
  public:
    TempFile()
        : path_(::testing::TempDir() + "/sp_trace_test_" +
                ::testing::UnitTest::GetInstance()
                    ->current_test_info()
                    ->name() +
                "_" + std::to_string(::getpid()) + ".bin")
    {
    }
    ~TempFile() { std::remove(path_.c_str()); }
    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

TEST(Dataset, HoldsRequestedBatches)
{
    TraceDataset dataset(smallConfig(), 10);
    EXPECT_EQ(dataset.numBatches(), 10u);
    for (uint64_t b = 0; b < 10; ++b)
        EXPECT_EQ(dataset.batch(b).index, b);
}

TEST(Dataset, MatchesGeneratorOutput)
{
    TraceDataset dataset(smallConfig(), 5);
    TraceGenerator gen(smallConfig());
    for (uint64_t b = 0; b < 5; ++b)
        EXPECT_EQ(dataset.batch(b).table_ids, gen.makeBatch(b).table_ids);
}

TEST(Dataset, LookAheadSeesFuture)
{
    TraceDataset dataset(smallConfig(), 6);
    const MiniBatch *ahead = dataset.lookAhead(2, 3);
    ASSERT_NE(ahead, nullptr);
    EXPECT_EQ(ahead->index, 5u);
    EXPECT_EQ(ahead->table_ids, dataset.batch(5).table_ids);
}

TEST(Dataset, LookAheadZeroIsSelf)
{
    TraceDataset dataset(smallConfig(), 4);
    const MiniBatch *self = dataset.lookAhead(1, 0);
    ASSERT_NE(self, nullptr);
    EXPECT_EQ(self->index, 1u);
}

TEST(Dataset, LookAheadPastEndIsNull)
{
    TraceDataset dataset(smallConfig(), 4);
    EXPECT_EQ(dataset.lookAhead(3, 1), nullptr);
    EXPECT_EQ(dataset.lookAhead(0, 4), nullptr);
}

TEST(Dataset, LookAheadHugeDistanceDoesNotWrap)
{
    // index + distance used to be summed, so a distance near 2^64
    // wrapped around and returned a stale in-range batch instead of
    // nullptr.
    TraceDataset dataset(smallConfig(), 4);
    const uint64_t huge = std::numeric_limits<uint64_t>::max();
    EXPECT_EQ(dataset.lookAhead(1, huge), nullptr);
    EXPECT_EQ(dataset.lookAhead(3, huge - 2), nullptr);
    EXPECT_EQ(dataset.lookAhead(huge, 0), nullptr);
    EXPECT_EQ(dataset.lookAhead(huge - 1, 1), nullptr);
}

TEST(Dataset, OutOfRangeBatchPanics)
{
    TraceDataset dataset(smallConfig(), 4);
    EXPECT_THROW(dataset.batch(4), PanicError);
}

TEST(Dataset, DenseAndLabelsDelegateToGenerator)
{
    TraceDataset dataset(smallConfig(), 3);
    TraceGenerator gen(smallConfig());
    EXPECT_TRUE(tensor::Matrix::identical(dataset.denseFeatures(1),
                                          gen.makeDenseFeatures(1)));
    EXPECT_TRUE(
        tensor::Matrix::identical(dataset.labels(2), gen.makeLabels(2)));
}

TEST(Dataset, SaveLoadRoundTrip)
{
    TempFile file;
    TraceDataset original(smallConfig(), 7);
    original.save(file.path());

    const TraceDataset loaded = TraceDataset::load(file.path());
    EXPECT_EQ(loaded.numBatches(), original.numBatches());
    EXPECT_EQ(loaded.config().num_tables, original.config().num_tables);
    EXPECT_EQ(loaded.config().rows_per_table,
              original.config().rows_per_table);
    EXPECT_EQ(loaded.config().seed, original.config().seed);
    for (uint64_t b = 0; b < original.numBatches(); ++b)
        EXPECT_EQ(loaded.batch(b).table_ids, original.batch(b).table_ids);
}

TEST(Dataset, LoadedDatasetReproducesLabels)
{
    // Labels derive from the config seed, which must survive the
    // round trip.
    TempFile file;
    TraceDataset original(smallConfig(), 3);
    original.save(file.path());
    const TraceDataset loaded = TraceDataset::load(file.path());
    EXPECT_TRUE(
        tensor::Matrix::identical(loaded.labels(1), original.labels(1)));
}

TEST(Dataset, RoundTripPreservesFullConfigAndLookAhead)
{
    // Beyond the ID payload: every TraceConfig field survives, and a
    // loaded dataset serves the same look-ahead spans and regenerates
    // the same dense features -- what the [Plan] stage and functional
    // runs consume.
    TempFile file;
    TraceDataset original(smallConfig(), 6);
    original.save(file.path());
    const TraceDataset loaded = TraceDataset::load(file.path());

    EXPECT_EQ(loaded.config().lookups_per_table,
              original.config().lookups_per_table);
    EXPECT_EQ(loaded.config().batch_size, original.config().batch_size);
    EXPECT_EQ(loaded.config().locality, original.config().locality);
    EXPECT_EQ(loaded.config().dense_features,
              original.config().dense_features);
    for (uint64_t d = 0; d <= 6; ++d) {
        const MiniBatch *expected = original.lookAhead(1, d);
        const MiniBatch *got = loaded.lookAhead(1, d);
        ASSERT_EQ(expected == nullptr, got == nullptr) << "distance " << d;
        if (expected != nullptr) {
            EXPECT_EQ(got->table_ids, expected->table_ids);
        }
    }
    EXPECT_TRUE(tensor::Matrix::identical(loaded.denseFeatures(3),
                                          original.denseFeatures(3)));
}

TEST(Dataset, RoundTripPreservesEveryConfigField)
{
    // A header that silently drops any generator-relevant field would
    // poison the content-addressed cache, so the loaded config must
    // compare equal field-by-field -- including the per-table
    // exponent overrides, which v1 files did not record at all.
    TempFile file;
    TraceConfig config = smallConfig();
    config.per_table_exponents = {0.35, 1.25};
    config.dense_features = 9;
    TraceDataset original(config, 4);
    original.save(file.path());

    const TraceDataset loaded = TraceDataset::load(file.path());
    EXPECT_TRUE(loaded.config() == config);
    for (uint64_t b = 0; b < 4; ++b)
        EXPECT_TRUE(loaded.batch(b).idsEqual(original.batch(b)));
}

TEST(Dataset, LoadHonoursMaxBatches)
{
    TempFile file;
    TraceDataset original(smallConfig(), 7);
    original.save(file.path());
    const TraceDataset prefix = TraceDataset::load(file.path(), 3);
    ASSERT_EQ(prefix.numBatches(), 3u);
    for (uint64_t b = 0; b < 3; ++b)
        EXPECT_TRUE(prefix.batch(b).idsEqual(original.batch(b)));
}

TEST(Dataset, MappedServesIdenticalBatchesZeroCopy)
{
    if (!TraceView::supported())
        GTEST_SKIP() << "no mmap on this platform";
    TempFile file;
    TraceConfig config = smallConfig();
    config.per_table_exponents = {0.6, 0.8};
    TraceDataset original(config, 6);
    original.save(file.path());

    const TraceDataset mapped = TraceDataset::mapped(file.path());
    EXPECT_TRUE(mapped.isMapped());
    EXPECT_TRUE(mapped.config() == config);
    ASSERT_EQ(mapped.numBatches(), 6u);
    for (uint64_t b = 0; b < 6; ++b) {
        EXPECT_TRUE(mapped.batch(b).idsEqual(original.batch(b)));
        // Zero-copy: the view path owns no ID storage.
        EXPECT_TRUE(mapped.batch(b).table_ids.empty());
        EXPECT_EQ(mapped.batch(b).numTables(), config.num_tables);
    }
    // Look-ahead and generator-derived streams work over the mapping.
    const MiniBatch *ahead = mapped.lookAhead(2, 3);
    ASSERT_NE(ahead, nullptr);
    EXPECT_TRUE(ahead->idsEqual(original.batch(5)));
    EXPECT_EQ(mapped.lookAhead(2, 4), nullptr);
    EXPECT_TRUE(tensor::Matrix::identical(mapped.labels(1),
                                          original.labels(1)));
    EXPECT_TRUE(tensor::Matrix::identical(mapped.denseFeatures(2),
                                          original.denseFeatures(2)));
}

TEST(Dataset, MappedHonoursMaxBatches)
{
    if (!TraceView::supported())
        GTEST_SKIP() << "no mmap on this platform";
    TempFile file;
    TraceDataset original(smallConfig(), 6);
    original.save(file.path());
    const TraceDataset mapped = TraceDataset::mapped(file.path(), 2);
    ASSERT_EQ(mapped.numBatches(), 2u);
    EXPECT_TRUE(mapped.batch(1).idsEqual(original.batch(1)));
    EXPECT_THROW(mapped.batch(2), PanicError);
}

TEST(Dataset, MappedRejectsCorruptFiles)
{
    if (!TraceView::supported())
        GTEST_SKIP() << "no mmap on this platform";
    TempFile file;
    TraceDataset original(smallConfig(), 3);
    original.save(file.path());
    std::ifstream is(file.path(), std::ios::binary);
    std::string bytes(std::istreambuf_iterator<char>(is),
                      std::istreambuf_iterator<char>{});
    is.close();
    {
        std::ofstream os(file.path(),
                         std::ios::binary | std::ios::trunc);
        os.write(bytes.data(),
                 static_cast<std::streamsize>(bytes.size() / 2));
    }
    EXPECT_THROW(TraceDataset::mapped(file.path()), FatalError);
    EXPECT_THROW(TraceDataset::mapped("/nonexistent/trace.bin"),
                 FatalError);
}

TEST(Dataset, SaveToUnwritablePathFatal)
{
    TraceDataset dataset(smallConfig(), 2);
    EXPECT_THROW(dataset.save("/nonexistent-dir/trace.bin"),
                 FatalError);
}

std::string
fileBytes(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(is),
                       std::istreambuf_iterator<char>());
}

TEST(Dataset, LoadTruncatedBatchDataFatal)
{
    // A file cut mid-payload must fail loudly at the cut, not return
    // a short dataset or spin over a dead stream.
    TempFile file;
    TraceDataset original(smallConfig(), 7);
    original.save(file.path());
    const std::string bytes = fileBytes(file.path());
    {
        std::ofstream os(file.path(),
                         std::ios::binary | std::ios::trunc);
        os.write(bytes.data(),
                 static_cast<std::streamsize>(2 * bytes.size() / 3));
    }
    EXPECT_THROW(TraceDataset::load(file.path()), FatalError);
}

TEST(Dataset, LoadTruncatedHeaderFatal)
{
    // Valid magic + version, then the header stops: the loader must
    // not act on the garbage counts a short read leaves behind.
    TempFile file;
    TraceDataset original(smallConfig(), 3);
    original.save(file.path());
    const std::string bytes = fileBytes(file.path());
    {
        std::ofstream os(file.path(),
                         std::ios::binary | std::ios::trunc);
        os.write(bytes.data(), 20); // magic + version + half a field
    }
    EXPECT_THROW(TraceDataset::load(file.path()), FatalError);
}

TEST(Dataset, LoadWrongVersionFatal)
{
    TempFile file;
    TraceDataset original(smallConfig(), 3);
    original.save(file.path());
    std::string bytes = fileBytes(file.path());
    bytes[8] = char(0x7f); // version field follows the 8-byte magic
    {
        std::ofstream os(file.path(),
                         std::ios::binary | std::ios::trunc);
        os.write(bytes.data(),
                 static_cast<std::streamsize>(bytes.size()));
    }
    EXPECT_THROW(TraceDataset::load(file.path()), FatalError);
}

TEST(Dataset, LoadV1FileRejectedWithRegenerateHint)
{
    // v1 headers omitted generator fields (per-table exponents), so a
    // v1 file must be rejected with a message pointing at the fix,
    // not silently loaded with a half-populated config.
    TempFile file;
    TraceDataset original(smallConfig(), 3);
    original.save(file.path());
    std::string bytes = fileBytes(file.path());
    bytes[8] = char(1); // version field follows the 8-byte magic
    {
        std::ofstream os(file.path(),
                         std::ios::binary | std::ios::trunc);
        os.write(bytes.data(),
                 static_cast<std::streamsize>(bytes.size()));
    }
    try {
        TraceDataset::load(file.path());
        FAIL() << "v1 file was accepted";
    } catch (const FatalError &error) {
        EXPECT_NE(std::string(error.what()).find("version 1"),
                  std::string::npos);
        EXPECT_NE(std::string(error.what()).find("regenerate"),
                  std::string::npos);
    }
}

TEST(Dataset, LoadMissingFileFatal)
{
    EXPECT_THROW(TraceDataset::load("/nonexistent/path/trace.bin"),
                 FatalError);
}

TEST(Dataset, LoadGarbageFileFatal)
{
    TempFile file;
    {
        std::ofstream os(file.path(), std::ios::binary);
        os << "this is not a trace file at all, far too short header";
    }
    EXPECT_THROW(TraceDataset::load(file.path()), FatalError);
}

TEST(Dataset, ZeroBatchesFatal)
{
    EXPECT_THROW(TraceDataset(smallConfig(), 0), FatalError);
}

} // namespace
} // namespace sp::data
