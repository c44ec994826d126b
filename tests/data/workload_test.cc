/**
 * @file
 * Workload shaping and trace replay.
 *
 * Covers the four shaping effects (drift, churn, burst, phase) and
 * their contracts: deterministic per (seed, table, batch index),
 * validated against the table geometry, spec strings that round-trip
 * through parse()/summary(), and -- the fix this layer forced -- a
 * 64-bit-clean ID path proven at a >2^32-row geometry from the
 * sampler through the trace to the row-index key. The replay adapter
 * is proven by a generate -> save -> replay round trip and by
 * classified degradation on truncated/corrupt/missing files.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "cache/row_index.h"
#include "common/logging.h"
#include "common/status.h"
#include "data/dataset.h"
#include "data/trace.h"
#include "data/trace_format.h"
#include "data/workload.h"

namespace sp::data
{
namespace
{

namespace fs = std::filesystem;

/** Small geometry exercised by most shaping tests. */
TraceConfig
shapedConfig()
{
    TraceConfig config;
    config.num_tables = 2;
    config.rows_per_table = 1000;
    config.lookups_per_table = 4;
    config.batch_size = 32;
    config.locality = Locality::Medium;
    config.seed = 99;
    config.dense_features = 2;
    config.workload.drift_amp = 0.3;
    config.workload.drift_period = 4;
    config.workload.churn_k = 16;
    config.workload.churn_period = 3;
    config.workload.burst_frac = 0.4;
    config.workload.burst_period = 6;
    config.workload.burst_len = 2;
    config.workload.burst_ranks = 50;
    config.workload.phase = 2;
    return config;
}

// ---- Spec grammar --------------------------------------------------

TEST(WorkloadSpec, EmptyStringIsTheStationarySpec)
{
    const WorkloadSpec spec = WorkloadSpec::parse("");
    EXPECT_TRUE(spec.config.stationary());
    EXPECT_TRUE(spec.replay_path.empty());
    EXPECT_EQ(spec.summary(), "");
}

TEST(WorkloadSpec, ParseRoundTripsThroughSummary)
{
    const std::string text =
        "drift_amp=0.3,drift_period=4,churn_k=16,churn_period=3,"
        "burst_frac=0.4,burst_period=6,burst_len=2,burst_ranks=50,"
        "phase=2";
    const WorkloadSpec spec = WorkloadSpec::parse(text);
    EXPECT_EQ(spec.config, shapedConfig().workload);
    EXPECT_EQ(spec.summary(), text);
    EXPECT_EQ(WorkloadSpec::parse(spec.summary()).config, spec.config);
}

TEST(WorkloadSpec, ReplaySummaryRoundTrips)
{
    const WorkloadSpec spec = WorkloadSpec::parse("replay=/tmp/a.trace");
    EXPECT_EQ(spec.replay_path, "/tmp/a.trace");
    EXPECT_TRUE(spec.config.stationary());
    EXPECT_EQ(spec.summary(), "replay=/tmp/a.trace");
}

TEST(WorkloadSpec, DuplicateKeysAreRejectedNotLastWin)
{
    // Pre-fix, drift_period=8 silently overwrote drift_period=4.
    try {
        WorkloadSpec::parse("drift_amp=0.1,drift_period=4,drift_period=8");
        FAIL() << "duplicate key accepted";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("duplicate key"),
                  std::string::npos);
        EXPECT_NE(std::string(e.what()).find("drift_period"),
                  std::string::npos);
    }
}

TEST(WorkloadSpec, MalformedSpecsDieLoudly)
{
    EXPECT_THROW(WorkloadSpec::parse("bogus=1"), FatalError);
    EXPECT_THROW(WorkloadSpec::parse("drift_amp"), FatalError);
    EXPECT_THROW(WorkloadSpec::parse("drift_amp=abc"), FatalError);
    EXPECT_THROW(WorkloadSpec::parse("churn_k=-3"), FatalError);
    EXPECT_THROW(WorkloadSpec::parse("churn_k=2.5"), FatalError);
    EXPECT_THROW(WorkloadSpec::parse("drift_amp=0x1p-2"), FatalError);
    EXPECT_THROW(WorkloadSpec::parse("drift_amp= 0.2"), FatalError);
    EXPECT_THROW(WorkloadSpec::parse("burst_frac=nan"), FatalError);
    EXPECT_THROW(WorkloadSpec::parse("replay="), FatalError);
    // Replay and shaping are mutually exclusive: the recorded file
    // already fixes its workload.
    EXPECT_THROW(WorkloadSpec::parse("replay=/tmp/a,drift_amp=0.1"),
                 FatalError);
}

// ---- Validation ----------------------------------------------------

TEST(WorkloadConfig, ValidConfigsPassValidation)
{
    EXPECT_EQ(WorkloadConfig{}.validationError(100), "");
    EXPECT_EQ(shapedConfig().workload.validationError(1000), "");
}

TEST(WorkloadConfig, ValidationCatchesEveryInconsistency)
{
    const auto error = [](auto mutate) {
        WorkloadConfig config;
        mutate(config);
        return config.validationError(100);
    };
    EXPECT_NE(error([](auto &c) { c.drift_amp = -0.1; }), "");
    EXPECT_NE(error([](auto &c) { c.drift_amp = 0.2; }), "");
    EXPECT_NE(error([](auto &c) { c.drift_period = 4; }), "");
    EXPECT_NE(error([](auto &c) { c.churn_k = 8; }), "");
    EXPECT_NE(error([](auto &c) { c.churn_period = 4; }), "");
    EXPECT_NE(error([](auto &c) {
        c.churn_k = 101;
        c.churn_period = 4;
    }), "");
    EXPECT_NE(error([](auto &c) { c.burst_frac = 1.5; }), "");
    EXPECT_NE(error([](auto &c) { c.burst_frac = 0.5; }), "");
    EXPECT_NE(error([](auto &c) { c.burst_period = 4; }), "");
    EXPECT_NE(error([](auto &c) {
        c.burst_frac = 0.5;
        c.burst_period = 2;
        c.burst_len = 3;
        c.burst_ranks = 10;
    }), "");
    EXPECT_NE(error([](auto &c) {
        c.burst_frac = 0.5;
        c.burst_period = 8;
        c.burst_len = 2;
        c.burst_ranks = 101;
    }), "");
    // The generator turns a bad workload into a fatal at build time.
    TraceConfig config = shapedConfig();
    config.workload.churn_k = config.rows_per_table + 1;
    EXPECT_THROW(TraceGenerator generator(config), FatalError);
}

// ---- Shaping semantics ---------------------------------------------

TEST(WorkloadShaper, DriftFollowsTheTriangleWave)
{
    WorkloadConfig config;
    config.drift_amp = 0.4;
    config.drift_period = 4;
    const double base = 1.0;
    const auto exponentAt = [&](uint64_t batch) {
        return WorkloadShaper(config, 7, 1000, base, 0, batch)
            .effectiveExponent();
    };
    // Half-period 4: position 0 sits at the trough, 4 at the crest,
    // 2 and 6 cross the base, 8 wraps back to the trough.
    EXPECT_DOUBLE_EQ(exponentAt(0), base - 0.4);
    EXPECT_DOUBLE_EQ(exponentAt(2), base);
    EXPECT_DOUBLE_EQ(exponentAt(4), base + 0.4);
    EXPECT_DOUBLE_EQ(exponentAt(6), base);
    EXPECT_DOUBLE_EQ(exponentAt(8), base - 0.4);
    // The exponent never goes negative, whatever the amplitude.
    config.drift_amp = 5.0;
    EXPECT_GE(exponentAt(0), 0.0);
}

TEST(WorkloadShaper, PhaseShiftsTheSchedulePerTable)
{
    WorkloadConfig config;
    config.drift_amp = 0.4;
    config.drift_period = 4;
    config.phase = 3;
    // Table t at batch b runs the schedule at position b + 3t, so
    // table 1 at batch b matches table 0 at batch b + 3.
    for (uint64_t b = 0; b < 10; ++b) {
        const double table1 =
            WorkloadShaper(config, 7, 1000, 1.0, 1, b)
                .effectiveExponent();
        const double table0 =
            WorkloadShaper(config, 7, 1000, 1.0, 0, b + 3)
                .effectiveExponent();
        EXPECT_DOUBLE_EQ(table1, table0) << "batch " << b;
    }
}

TEST(WorkloadShaper, BurstWindowIsStableWithinACrowdAndMovesAcross)
{
    WorkloadConfig config;
    config.burst_frac = 0.5;
    config.burst_period = 8;
    config.burst_len = 3;
    config.burst_ranks = 100;
    const uint64_t rows = 100'000;
    const auto shaperAt = [&](uint64_t batch) {
        return WorkloadShaper(config, 7, rows, 1.0, 0, batch);
    };
    // Batches 0..2 of each period are the crowd; 3..7 are quiet.
    EXPECT_TRUE(shaperAt(0).burstActive());
    EXPECT_TRUE(shaperAt(2).burstActive());
    EXPECT_FALSE(shaperAt(3).burstActive());
    EXPECT_FALSE(shaperAt(7).burstActive());
    // Within one crowd the window is pinned; the next crowd re-rolls.
    const uint64_t first = shaperAt(0).burstLo();
    EXPECT_EQ(shaperAt(1).burstLo(), first);
    EXPECT_EQ(shaperAt(2).burstLo(), first);
    EXPECT_LE(first, rows - config.burst_ranks);
    bool moved = false;
    for (uint64_t crowd = 1; crowd < 8 && !moved; ++crowd)
        moved = shaperAt(crowd * config.burst_period).burstLo() != first;
    EXPECT_TRUE(moved) << "burst window never re-rolled";
}

TEST(WorkloadShaper, FullBurstRedirectsEverySampleIntoTheWindow)
{
    WorkloadConfig config;
    config.burst_frac = 1.0;
    config.burst_period = 4;
    config.burst_len = 4; // always bursting
    config.burst_ranks = 32;
    WorkloadShaper shaper(config, 7, 100'000, 1.0, 0, 0);
    tensor::Rng rng(123);
    for (int i = 0; i < 500; ++i) {
        const uint64_t id = shaper.sample(rng);
        EXPECT_GE(id, shaper.burstLo());
        EXPECT_LT(id, shaper.burstLo() + config.burst_ranks);
    }
}

TEST(WorkloadShaper, ChurnOnlyRemapsTheHottestKRanks)
{
    WorkloadConfig config;
    config.churn_k = 8;
    config.churn_period = 2;
    const uint64_t rows = 1000;
    WorkloadShaper shaper(config, 7, rows, 1.0, 0, 0);
    tensor::Rng rng(5);
    std::vector<bool> hit(8, false);
    for (int i = 0; i < 5000; ++i) {
        const uint64_t id = shaper.sample(rng);
        ASSERT_LT(id, rows);
        if (id < 8)
            hit[id] = true;
    }
    // The remap is a permutation of [0, K): the hot ranks all stay
    // reachable (a Zipf head this heavy hits each of the top 8).
    for (int rank = 0; rank < 8; ++rank)
        EXPECT_TRUE(hit[rank]) << "rank " << rank << " unreachable";
}

TEST(WorkloadGenerator, ShapedBatchesAreDeterministicPerSeedTableBatch)
{
    const TraceConfig config = shapedConfig();
    const TraceGenerator a(config);
    const TraceGenerator b(config);
    for (uint64_t index : {0ull, 3ull, 7ull}) {
        // Same (seed, table, batch) -> identical IDs, whatever the
        // construction order (b generates backwards).
        EXPECT_EQ(a.makeRecord(index), b.makeRecord(index))
            << "batch " << index;
    }
    TraceConfig reseeded = config;
    reseeded.seed = 100;
    EXPECT_NE(TraceGenerator(reseeded).makeRecord(0), a.makeRecord(0));
}

TEST(WorkloadGenerator, ShapedStreamDiffersFromStationary)
{
    const TraceConfig shaped = shapedConfig();
    TraceConfig stationary = shaped;
    stationary.workload = WorkloadConfig{};
    EXPECT_NE(TraceGenerator(shaped).makeRecord(0),
              TraceGenerator(stationary).makeRecord(0));
}

// ---- The 64-bit regression -----------------------------------------

TEST(WorkloadGenerator, HugeTableGeometryKeepsIdsUnwrapped)
{
    // Regression: ZipfSampler::sample returned uint32_t while
    // rows_per_table is uint64_t, so any table beyond 2^32 rows
    // silently wrapped its IDs. Uniform sampling over 4 * 2^32 rows
    // puts ~3/4 of all draws above the boundary; pre-fix, every one
    // of them aliased a low row.
    TraceConfig config;
    config.num_tables = 1;
    config.rows_per_table = uint64_t{4} << 32;
    config.lookups_per_table = 4;
    config.batch_size = 64;
    config.per_table_exponents = {0.0}; // uniform
    config.seed = 11;
    const TraceGenerator generator(config);
    const std::vector<uint64_t> record = generator.makeRecord(0);
    const auto ids = MiniBatch::fromRecord(record, config).ids(0);
    uint64_t above_boundary = 0;
    cache::RowIndex index;
    for (size_t i = 0; i < ids.size(); ++i) {
        ASSERT_LT(ids[i], config.rows_per_table);
        if (ids[i] > (uint64_t{1} << 32))
            ++above_boundary;
        if (!index.contains(ids[i]))
            index.insert(ids[i], static_cast<uint32_t>(i));
    }
    // 256 uniform draws, each above 2^32 with probability 3/4: zero
    // would mean the sampler truncated.
    EXPECT_GT(above_boundary, ids.size() / 2);
    // And the cache keys survive the trip: every inserted wide ID is
    // found under its exact 64-bit key, not a truncated alias.
    for (size_t i = 0; i < ids.size(); ++i) {
        EXPECT_TRUE(index.contains(ids[i]));
        EXPECT_FALSE(index.contains(ids[i] + (uint64_t{1} << 32)))
            << "truncated alias matched for id " << ids[i];
    }
}

// ---- Replay --------------------------------------------------------

class ReplayTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        // Private to the running test: ctest runs every case as its
        // own process, so a shared name would race under -j.
        path_ = (fs::path(::testing::TempDir()) /
                 ("sp_workload_replay_" +
                  std::string(::testing::UnitTest::GetInstance()
                                  ->current_test_info()
                                  ->name()) +
                  "_" + std::to_string(::getpid()) + ".trace"))
                    .string();
        fs::remove(path_);
    }
    void TearDown() override { fs::remove(path_); }

    /** The code replay() throws, or Ok when the file replays. */
    ErrorCode
    replayFailure(uint64_t max_batches) const
    try {
        TraceDataset::replay(path_, max_batches);
        return ErrorCode::Ok;
    } catch (const StatusError &error) {
        return error.status().code();
    }

    std::string path_;
};

TEST_F(ReplayTest, GenerateSaveReplayMatchesDirectGeneration)
{
    const TraceConfig config = shapedConfig();
    constexpr uint64_t kBatches = 5;
    const TraceDataset direct(config, kBatches);
    ASSERT_TRUE(direct.saveTo(path_).ok());

    const TraceDataset replayed = TraceDataset::replay(path_, kBatches);
    // The file's embedded config drives the run...
    EXPECT_EQ(replayed.config(), config);
    EXPECT_EQ(replayed.config().fingerprint(), config.fingerprint());
    ASSERT_EQ(replayed.numBatches(), kBatches);
    // ...and the replayed stream is the recorded stream, bit for bit.
    for (uint64_t b = 0; b < kBatches; ++b)
        EXPECT_TRUE(replayed.batch(b).idsEqual(direct.batch(b)))
            << "batch " << b;
}

TEST_F(ReplayTest, MissingFileClassifiesAsNotFound)
{
    EXPECT_EQ(replayFailure(2), ErrorCode::NotFound);
}

TEST_F(ReplayTest, TruncatedFileClassifiesThroughTheStatusPath)
{
    const TraceDataset direct(shapedConfig(), 3);
    ASSERT_TRUE(direct.saveTo(path_).ok());
    const auto full_size = fs::file_size(path_);
    fs::resize_file(path_, full_size - full_size / 3);

    EXPECT_EQ(replayFailure(3), ErrorCode::Truncated);
}

TEST_F(ReplayTest, CorruptMagicClassifiesAsCorrupt)
{
    const TraceDataset direct(shapedConfig(), 2);
    ASSERT_TRUE(direct.saveTo(path_).ok());
    {
        std::fstream file(path_,
                          std::ios::in | std::ios::out |
                              std::ios::binary);
        file.seekp(0);
        file.write("BADMAGIC", 8);
    }
    EXPECT_EQ(replayFailure(2), ErrorCode::Corrupt);
}

TEST_F(ReplayTest, OutOfRangeRowClassifiesAsCorrupt)
{
    // Every system indexes by row, so a trace naming a row outside its
    // tables is refused at load instead of failing mid-run.
    const TraceConfig config = shapedConfig();
    const TraceDataset direct(config, 3);
    // Batch 1, table 1, first ID: past batch 0, the index word and
    // table 0's IDs.
    const auto offset = static_cast<std::streamoff>(
        format::headerBytes(config) + format::batchRecordBytes(config) +
        sizeof(uint64_t) * (1 + direct.batch(1).idsPerTable()));
    const auto savePatched = [&](uint64_t id) {
        EXPECT_TRUE(direct.saveTo(path_).ok());
        std::fstream file(path_,
                          std::ios::in | std::ios::out |
                              std::ios::binary);
        file.seekp(offset);
        file.write(reinterpret_cast<const char *>(&id), sizeof(id));
    };

    savePatched(config.rows_per_table - 1);
    EXPECT_EQ(replayFailure(3), ErrorCode::Ok);
    savePatched(config.rows_per_table);
    EXPECT_EQ(replayFailure(3), ErrorCode::Corrupt);
    savePatched(UINT64_MAX);
    EXPECT_EQ(replayFailure(3), ErrorCode::Corrupt);
}

} // namespace
} // namespace sp::data
