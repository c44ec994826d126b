/** @file TraceDataset look-ahead and serialization tests. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include <unistd.h>

#include "common/logging.h"
#include "common/status.h"
#include "data/dataset.h"

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

/** Replace the file at `path` with `bytes`. */
void
writeBytes(const std::string &path, std::string_view bytes)
{
    std::ofstream(path, std::ios::binary | std::ios::trunc)
        .write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/** Save `dataset` to `path` and return the file's bytes. */
std::string
savedBytes(const TraceDataset &dataset, const std::string &path)
{
    EXPECT_TRUE(dataset.saveTo(path).ok());
    std::ifstream is(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(is), {}};
}

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
    for (uint64_t b = 0; b < 5; ++b) {
        const std::vector<uint64_t> record = gen.makeRecord(b);
        EXPECT_TRUE(dataset.batch(b).idsEqual(
            MiniBatch::fromRecord(record, gen.config())));
    }
}

TEST(Dataset, LookAheadSeesFuture)
{
    TraceDataset dataset(smallConfig(), 6);
    const MiniBatch *ahead = dataset.lookAhead(2, 3);
    ASSERT_NE(ahead, nullptr);
    EXPECT_EQ(ahead->index, 5u);
    EXPECT_TRUE(ahead->idsEqual(dataset.batch(5)));
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
    const std::vector<uint64_t> record = gen.makeRecord(2);
    EXPECT_TRUE(tensor::Matrix::identical(
        dataset.labels(2),
        gen.makeLabels(MiniBatch::fromRecord(record, gen.config()))));
}

TEST(Dataset, SaveLoadRoundTrip)
{
    // An opened file serves the saved batches in place, and look-ahead
    // and the generator-derived streams work over the mapping.
    TempFile file;
    TraceConfig config = smallConfig();
    config.per_table_exponents = {0.6, 0.8};
    TraceDataset original(config, 6);
    ASSERT_TRUE(original.saveTo(file.path()).ok());

    const TraceDataset loaded = TraceDataset::open(file.path());
    EXPECT_TRUE(loaded.config() == config);
    ASSERT_EQ(loaded.numBatches(), 6u);
    for (uint64_t b = 0; b < 6; ++b) {
        EXPECT_TRUE(loaded.batch(b).idsEqual(original.batch(b)));
        EXPECT_EQ(loaded.batch(b).numTables(), config.num_tables);
    }
    const MiniBatch *ahead = loaded.lookAhead(2, 3);
    ASSERT_NE(ahead, nullptr);
    EXPECT_TRUE(ahead->idsEqual(original.batch(5)));
    EXPECT_EQ(loaded.lookAhead(2, 4), nullptr);
    EXPECT_TRUE(tensor::Matrix::identical(loaded.labels(1),
                                          original.labels(1)));
    EXPECT_TRUE(tensor::Matrix::identical(loaded.denseFeatures(2),
                                          original.denseFeatures(2)));
}

TEST(Dataset, LoadedDatasetReproducesLabels)
{
    // Labels derive from the config seed, which must survive the
    // round trip.
    TempFile file;
    TraceDataset original(smallConfig(), 3);
    ASSERT_TRUE(original.saveTo(file.path()).ok());
    const TraceDataset loaded = TraceDataset::open(file.path());
    EXPECT_TRUE(
        tensor::Matrix::identical(loaded.labels(1), original.labels(1)));
}

TEST(Dataset, LabelsFollowTheStoredIds)
{
    // Labels hash the IDs a batch serves, so an opened file's labels
    // follow the IDs it stores, not the ones its header regenerates.
    TempFile file;
    const TraceDataset original(smallConfig(), 3);
    std::string bytes = savedBytes(original, file.path());
    const TraceConfig &config = original.config();
    const size_t record = config.recordWords() * sizeof(uint64_t);
    // Batch 1's record is the second of three at the end of the file:
    // its index word, then table 0's IDs.
    const size_t table0 = bytes.size() - 2 * record + sizeof(uint64_t);
    std::fill_n(bytes.begin() + table0,
                config.idsPerTable() * sizeof(uint64_t), '\0');
    writeBytes(file.path(), bytes);

    const TraceDataset edited = TraceDataset::open(file.path());
    for (const uint64_t id : edited.batch(1).ids(0))
        ASSERT_EQ(id, 0u);
    EXPECT_FALSE(
        tensor::Matrix::identical(edited.labels(1), original.labels(1)));
    EXPECT_TRUE(
        tensor::Matrix::identical(edited.labels(0), original.labels(0)));
}

TEST(Dataset, RoundTripPreservesFullConfigAndLookAhead)
{
    // Beyond the ID payload: every TraceConfig field survives, and a
    // loaded dataset serves the same look-ahead spans and regenerates
    // the same dense features -- what the [Plan] stage and functional
    // runs consume.
    TempFile file;
    TraceDataset original(smallConfig(), 6);
    ASSERT_TRUE(original.saveTo(file.path()).ok());
    const TraceDataset loaded = TraceDataset::open(file.path());

    EXPECT_TRUE(loaded.config() == original.config());
    for (uint64_t d = 0; d <= 6; ++d) {
        const MiniBatch *expected = original.lookAhead(1, d);
        const MiniBatch *got = loaded.lookAhead(1, d);
        ASSERT_EQ(expected == nullptr, got == nullptr) << "distance " << d;
        if (expected != nullptr) {
            EXPECT_TRUE(got->idsEqual(*expected));
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
    ASSERT_TRUE(original.saveTo(file.path()).ok());

    const TraceDataset loaded = TraceDataset::open(file.path());
    EXPECT_TRUE(loaded.config() == config);
    for (uint64_t b = 0; b < 4; ++b)
        EXPECT_TRUE(loaded.batch(b).idsEqual(original.batch(b)));
}

TEST(Dataset, LoadHonoursMaxBatches)
{
    TempFile file;
    TraceDataset original(smallConfig(), 7);
    ASSERT_TRUE(original.saveTo(file.path()).ok());
    const TraceDataset prefix = TraceDataset::open(file.path(), 3);
    ASSERT_EQ(prefix.numBatches(), 3u);
    for (uint64_t b = 0; b < 3; ++b)
        EXPECT_TRUE(prefix.batch(b).idsEqual(original.batch(b)));
    EXPECT_THROW(prefix.batch(3), PanicError);
    // A longer request serves the whole file.
    EXPECT_EQ(TraceDataset::open(file.path(), 9).numBatches(), 7u);
}

TEST(Dataset, SaveToUnwritablePathFatal)
{
    TraceDataset dataset(smallConfig(), 2);
    EXPECT_EQ(dataset.saveTo("/nonexistent-dir/trace.bin").code(),
              ErrorCode::IoError);
}

TEST(Dataset, CopyOutlivesTheOriginal)
{
    // Copies share the generator's buffer, which lives as long as any
    // of them: a copy's spans must stay valid once the original is
    // gone.
    auto original = std::make_unique<TraceDataset>(smallConfig(), 4);
    const TraceDataset copy = *original;
    EXPECT_EQ(copy.batch(2).all_ids.data(),
              original->batch(2).all_ids.data());
    original.reset();
    const TraceDataset fresh(smallConfig(), 4);
    for (uint64_t b = 0; b < 4; ++b)
        EXPECT_TRUE(copy.batch(b).idsEqual(fresh.batch(b)));
}

TEST(Dataset, LoadTruncatedBatchDataFatal)
{
    // A file cut mid-payload must fail loudly, not return a short
    // dataset.
    TempFile file;
    const std::string bytes =
        savedBytes(TraceDataset(smallConfig(), 7), file.path());
    for (const size_t kept : {2 * bytes.size() / 3, bytes.size() / 2}) {
        writeBytes(file.path(), std::string_view(bytes).substr(0, kept));
        EXPECT_THROW(TraceDataset::open(file.path()), FatalError) << kept;
    }
}

TEST(Dataset, LoadTruncatedHeaderFatal)
{
    // Valid magic + version, then the header stops: the loader must
    // not act on the garbage counts a short read leaves behind.
    TempFile file;
    const std::string bytes =
        savedBytes(TraceDataset(smallConfig(), 3), file.path());
    // magic + version + half a field
    writeBytes(file.path(), std::string_view(bytes).substr(0, 20));
    EXPECT_THROW(TraceDataset::open(file.path()), FatalError);
}

TEST(Dataset, LoadWrongVersionFatal)
{
    TempFile file;
    std::string bytes =
        savedBytes(TraceDataset(smallConfig(), 3), file.path());
    bytes[8] = char(0x7f); // version field follows the 8-byte magic
    writeBytes(file.path(), bytes);
    EXPECT_THROW(TraceDataset::open(file.path()), FatalError);
}

TEST(Dataset, LoadV1FileRejectedWithRegenerateHint)
{
    // v1 headers omitted generator fields (per-table exponents), so a
    // v1 file must be rejected with a message pointing at the fix,
    // not silently loaded with a half-populated config.
    TempFile file;
    std::string bytes =
        savedBytes(TraceDataset(smallConfig(), 3), file.path());
    bytes[8] = char(1); // version field follows the 8-byte magic
    writeBytes(file.path(), bytes);
    try {
        TraceDataset::open(file.path());
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
    EXPECT_THROW(TraceDataset::open("/nonexistent/path/trace.bin"),
                 FatalError);
}

TEST(Dataset, LoadGarbageFileFatal)
{
    TempFile file;
    writeBytes(file.path(),
               "this is not a trace file at all, far too short header");
    EXPECT_THROW(TraceDataset::open(file.path()), FatalError);
    // Nor is a directory: it must classify, not map.
    EXPECT_THROW(TraceDataset::open(::testing::TempDir()), StatusError);
}

TEST(Dataset, ZeroBatchesFatal)
{
    EXPECT_THROW(TraceDataset(smallConfig(), 0), FatalError);
}

} // namespace
} // namespace sp::data
