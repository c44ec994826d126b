/**
 * @file
 * Content-addressed trace cache tests: fingerprint stability and
 * sensitivity, cold/warm acquisition, generated-vs-mapped identity,
 * atomic publication under racing writers, corrupt-entry recovery,
 * and the transparent ExperimentRunner wiring.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "common/fault.h"
#include "common/logging.h"
#include "common/status.h"
#include "data/trace_format.h"
#include "data/trace_store.h"
#include "sim/hardware_config.h"
#include "sys/experiment.h"

namespace sp::data
{
namespace
{

namespace fs = std::filesystem;

TraceConfig
smallConfig()
{
    TraceConfig config;
    config.num_tables = 2;
    config.rows_per_table = 400;
    config.lookups_per_table = 3;
    config.batch_size = 8;
    config.locality = Locality::Medium;
    config.seed = 33;
    config.dense_features = 5;
    return config;
}

/** Fresh cache directory per test, removed on destruction. */
class TempStore
{
  public:
    explicit TempStore(const std::string &name)
        : dir_(fs::path(::testing::TempDir()) /
               ("sp_store_test_" + name))
    {
        fs::remove_all(dir_);
        store_ = std::make_unique<TraceStore>(
            TraceStore::Options{.directory = dir_.string()});
    }
    ~TempStore() { fs::remove_all(dir_); }

    const TraceStore &operator*() const { return *store_; }
    const TraceStore *operator->() const { return store_.get(); }
    const fs::path &dir() const { return dir_; }

  private:
    fs::path dir_;
    std::unique_ptr<TraceStore> store_;
};

void
expectDatasetsEqual(const TraceDataset &a, const TraceDataset &b)
{
    ASSERT_EQ(a.numBatches(), b.numBatches());
    EXPECT_TRUE(a.config() == b.config());
    for (uint64_t i = 0; i < a.numBatches(); ++i)
        EXPECT_TRUE(a.batch(i).idsEqual(b.batch(i))) << "batch " << i;
}

std::string
fileBytes(const fs::path &path)
{
    std::ostringstream os;
    os << std::ifstream(path, std::ios::binary).rdbuf();
    return os.str();
}

TEST(Fingerprint, PinnedValueForDefaultConfig)
{
    // Guards the hash against accidental drift: a change here retires
    // every cache entry in the field, so it must only happen together
    // with a deliberate kTraceFormatVersion bump.
    EXPECT_EQ(TraceConfig{}.fingerprint(), "2b042b75b5a30fe3");
}

TEST(Fingerprint, IsDeterministic)
{
    EXPECT_EQ(smallConfig().fingerprint(), smallConfig().fingerprint());
}

TEST(Fingerprint, EveryFieldChangesTheHash)
{
    const TraceConfig base = smallConfig();
    std::vector<TraceConfig> variants(18, base);
    variants[0].num_tables = 3;
    variants[1].rows_per_table = 401;
    variants[2].lookups_per_table = 4;
    variants[3].batch_size = 16;
    variants[4].locality = Locality::High;
    variants[5].seed = 34;
    variants[6].dense_features = 6;
    variants[7].per_table_exponents = {0.5, 0.9};
    variants[8].per_table_exponents = {0.5, 0.900001};
    // Every workload field must feed the hash too: a cache entry
    // generated with a burst overlay must never be served for the
    // stationary config (or vice versa).
    variants[9].workload.drift_amp = 0.25;
    variants[10].workload.drift_period = 16;
    variants[11].workload.churn_k = 32;
    variants[12].workload.churn_period = 8;
    variants[13].workload.burst_frac = 0.5;
    variants[14].workload.burst_period = 12;
    variants[15].workload.burst_len = 3;
    variants[16].workload.burst_ranks = 64;
    variants[17].workload.phase = 5;

    std::set<std::string> fingerprints = {base.fingerprint()};
    for (const auto &variant : variants)
        fingerprints.insert(variant.fingerprint());
    // All pairwise distinct: the base plus every single-field mutant.
    EXPECT_EQ(fingerprints.size(), variants.size() + 1);
}

TEST(TraceStore, EntryPathIsUnderDirectoryAndKeyedByFingerprint)
{
    TempStore store("entry_path");
    const TraceConfig config = smallConfig();
    const std::string path = store->entryPath(config);
    EXPECT_TRUE(path.find(store.dir().string()) != std::string::npos);
    EXPECT_TRUE(path.find(config.fingerprint()) != std::string::npos);
}

TEST(TraceStore, ColdAcquireGeneratesPublishesAndWarmHits)
{
    TempStore store("cold_warm");
    const TraceConfig config = smallConfig();

    TraceStore::AcquireInfo info;
    const TraceDataset cold = store->acquire(config, 6, &info);
    EXPECT_FALSE(info.cache_hit);
    EXPECT_TRUE(info.published);
    EXPECT_TRUE(fs::exists(store->entryPath(config)));
    EXPECT_EQ(cold.numBatches(), 6u);

    const TraceDataset warm = store->acquire(config, 6, &info);
    EXPECT_TRUE(info.cache_hit);
    EXPECT_FALSE(info.published);
    expectDatasetsEqual(cold, warm);
    // Labels/dense features regenerate from the round-tripped config.
    EXPECT_TRUE(tensor::Matrix::identical(cold.labels(2),
                                          warm.labels(2)));
    EXPECT_TRUE(tensor::Matrix::identical(cold.denseFeatures(3),
                                          warm.denseFeatures(3)));
}

TEST(TraceStore, MappedAndEagerHitsServeIdenticalBatches)
{
    // A trace's two sources -- the generator's buffer and a file
    // mapping -- serve identical batches and save identical bytes.
    TempStore store("mmap_vs_eager");
    const TraceConfig config = smallConfig();
    const TraceDataset generated = store->acquire(config, 5);

    TraceStore::AcquireInfo info;
    const TraceDataset mapped = store->acquire(config, 5, &info);
    EXPECT_TRUE(info.cache_hit);
    expectDatasetsEqual(generated, mapped);
    // The entry itself is generated.saveTo()'s output.
    const fs::path copy = store.dir() / "copy.sptrace";
    for (const TraceDataset *dataset : {&generated, &mapped}) {
        ASSERT_TRUE(dataset->saveTo(copy.string()).ok());
        EXPECT_EQ(fileBytes(copy), fileBytes(store->entryPath(config)));
    }
}

TEST(TraceStore, LongerEntryServesAnyPrefix)
{
    TempStore store("prefix");
    const TraceConfig config = smallConfig();
    const TraceDataset full = store->acquire(config, 9);

    TraceStore::AcquireInfo info;
    const TraceDataset prefix = store->acquire(config, 4, &info);
    EXPECT_TRUE(info.cache_hit);
    ASSERT_EQ(prefix.numBatches(), 4u);
    for (uint64_t b = 0; b < 4; ++b)
        EXPECT_TRUE(prefix.batch(b).idsEqual(full.batch(b)));
}

TEST(TraceStore, ShorterEntryIsRegeneratedAndReplaced)
{
    TempStore store("grow");
    const TraceConfig config = smallConfig();
    store->acquire(config, 3);

    TraceStore::AcquireInfo info;
    const TraceDataset grown = store->acquire(config, 8, &info);
    EXPECT_FALSE(info.cache_hit);
    EXPECT_TRUE(info.published);
    EXPECT_EQ(grown.numBatches(), 8u);

    // The replacement now serves the bigger request warm.
    const TraceDataset warm = store->acquire(config, 8, &info);
    EXPECT_TRUE(info.cache_hit);
    expectDatasetsEqual(grown, warm);
}

TEST(TraceStore, CorruptEntryIsRegeneratedAndOverwritten)
{
    TempStore store("corrupt");
    const TraceConfig config = smallConfig();
    const TraceDataset original = store->acquire(config, 5);

    {
        std::ofstream os(store->entryPath(config),
                         std::ios::binary | std::ios::trunc);
        os << "garbage, definitely not a trace";
    }

    TraceStore::AcquireInfo info;
    const TraceDataset recovered = store->acquire(config, 5, &info);
    EXPECT_FALSE(info.cache_hit);
    EXPECT_TRUE(info.published);
    expectDatasetsEqual(original, recovered);

    const TraceDataset warm = store->acquire(config, 5, &info);
    EXPECT_TRUE(info.cache_hit);
    expectDatasetsEqual(original, warm);
}

TEST(TraceStore, OutOfRangeRowEntryIsRegeneratedAndOverwritten)
{
    TempStore store("out_of_range_row");
    const TraceConfig config = smallConfig();
    const TraceDataset original = store->acquire(config, 5);

    {
        // The last ID of the entry names a row past the table; the
        // header and every index word stay valid.
        std::fstream file(store->entryPath(config),
                          std::ios::in | std::ios::out |
                              std::ios::binary);
        file.seekp(-static_cast<std::streamoff>(sizeof(uint64_t)),
                   std::ios::end);
        const uint64_t id = config.rows_per_table;
        file.write(reinterpret_cast<const char *>(&id), sizeof(id));
    }

    TraceStore::AcquireInfo info;
    const TraceDataset recovered = store->acquire(config, 5, &info);
    EXPECT_FALSE(info.cache_hit);
    EXPECT_EQ(info.load_status.code(), ErrorCode::Corrupt);
    EXPECT_TRUE(info.published);
    expectDatasetsEqual(original, recovered);

    const TraceDataset warm = store->acquire(config, 5, &info);
    EXPECT_TRUE(info.cache_hit);
    expectDatasetsEqual(original, warm);
}

TEST(TraceStore, EntryForDifferentConfigReadsAsMissNotPoison)
{
    // Plant config A's (valid!) entry at config B's path: the
    // field-by-field guard must refuse to serve it even though the
    // file itself is pristine -- this is the hash-collision defence.
    TempStore store("poison");
    const TraceConfig a = smallConfig();
    TraceConfig b = smallConfig();
    b.seed = 99;
    store->acquire(a, 5);
    fs::rename(store->entryPath(a), store->entryPath(b));

    TraceStore::AcquireInfo info;
    const TraceDataset dataset = store->acquire(b, 5, &info);
    EXPECT_FALSE(info.cache_hit);
    EXPECT_TRUE(info.published);
    expectDatasetsEqual(dataset, TraceDataset(b, 5));
}

TEST(TraceStore, RacingPublishersBothSucceedAndAgree)
{
    TempStore store("race");
    const TraceConfig config = smallConfig();

    std::vector<std::unique_ptr<TraceDataset>> results(4);
    // Publishing must be safe against *independent* processes and
    // threads, not pool lanes, so the race is staged on raw threads.
    // splint:allow(no-raw-thread): racing publishers must not share a pool
    std::vector<std::thread> writers;
    for (auto &slot : results) {
        writers.emplace_back([&store, &config, &slot] {
            slot = std::make_unique<TraceDataset>(
                store->acquire(config, 6));
        });
    }
    for (auto &writer : writers)
        writer.join();

    for (const auto &result : results) {
        ASSERT_NE(result, nullptr);
        expectDatasetsEqual(*results[0], *result);
    }
    // Whoever won the rename race left a valid, loadable entry, and
    // no temp files leak.
    TraceStore::AcquireInfo info;
    const TraceDataset warm = store->acquire(config, 6, &info);
    EXPECT_TRUE(info.cache_hit);
    expectDatasetsEqual(*results[0], warm);
    size_t files = 0;
    for (const auto &entry : fs::directory_iterator(store.dir())) {
        (void)entry;
        ++files;
    }
    EXPECT_EQ(files, 1u);
}

TEST(TraceStore, ZeroBatchAcquireFatal)
{
    TempStore store("zero");
    EXPECT_THROW(store->acquire(smallConfig(), 0), FatalError);
}

/** Flips the process-wide cache switch for one scope. */
class CacheEnabledGuard
{
  public:
    explicit CacheEnabledGuard(const std::string &dir)
    {
        ::setenv("SP_TRACE_CACHE", dir.c_str(), 1);
        TraceStore::setCacheEnabled(true);
    }
    ~CacheEnabledGuard()
    {
        TraceStore::setCacheEnabled(false);
        ::unsetenv("SP_TRACE_CACHE");
    }
};

TEST(TraceStore, EnvironmentKillSwitchDisablesCache)
{
    ::setenv("SP_TRACE_CACHE", "off", 1);
    TraceStore::setCacheEnabled(true);
    EXPECT_FALSE(TraceStore::cacheEnabled());
    TraceStore::setCacheEnabled(false);
    ::unsetenv("SP_TRACE_CACHE");
    EXPECT_FALSE(TraceStore::cacheEnabled());
}

/** Arms one fault schedule for a scope; disarms on exit. */
class FaultGuard
{
  public:
    explicit FaultGuard(const std::string &spec)
    {
        common::fault::configure(spec);
    }
    ~FaultGuard() { common::fault::clear(); }
};

TEST(TraceStore, WriteFailureDuringPublishDegradesToUncached)
{
    // The injector stands in for ENOSPC mid-write: saveTo fails, the
    // orphaned temp file is unlinked, the acquire still returns the
    // in-memory dataset, and the status is classified -- never a
    // crash, never litter that a later publish would trip over.
    TempStore store("enospc_publish");
    const TraceConfig config = smallConfig();
    const TraceDataset want(config, 4);
    {
        FaultGuard guard("dataset.save.write:every=1");
        TraceStore::AcquireInfo info;
        const TraceDataset got = store->acquire(config, 4, &info);
        EXPECT_FALSE(info.cache_hit);
        EXPECT_FALSE(info.published);
        EXPECT_EQ(info.publish_status.code(),
                  ErrorCode::FaultInjected);
        expectDatasetsEqual(got, want);
        size_t files = 0;
        for (const auto &entry : fs::directory_iterator(store.dir())) {
            (void)entry;
            ++files;
        }
        EXPECT_EQ(files, 0u) << "publish failure leaked a temp file";
    }
    // Disarmed, the same store publishes cleanly.
    TraceStore::AcquireInfo info;
    const TraceDataset clean = store->acquire(config, 4, &info);
    EXPECT_TRUE(info.published);
    expectDatasetsEqual(clean, want);
}

TEST(TraceStore, MidFileTruncationReadsAsMissAndRegenerates)
{
    TempStore store("truncation");
    const TraceConfig config = smallConfig();
    const TraceDataset original = store->acquire(config, 5);
    const std::string path = store->entryPath(config);

    // Cut the published entry mid-batch, as a crashed writer or a
    // torn copy would.
    fs::resize_file(path, fs::file_size(path) - 7);

    TraceStore::AcquireInfo info;
    const TraceDataset recovered = store->acquire(config, 5, &info);
    EXPECT_FALSE(info.cache_hit);
    EXPECT_EQ(info.load_status.code(), ErrorCode::Truncated);
    EXPECT_TRUE(info.published) << "regenerated entry must republish";
    expectDatasetsEqual(recovered, original);

    const TraceDataset warm = store->acquire(config, 5, &info);
    EXPECT_TRUE(info.cache_hit);
    expectDatasetsEqual(warm, original);
}

/** The code a failing open() throws, or Ok when it opens. */
ErrorCode
openFailure(const std::string &path)
try {
    TraceDataset::open(path);
    return ErrorCode::Ok;
} catch (const StatusError &error) {
    return error.status().code();
}

/** `bytes` with the word at byte `offset` set to `word`. */
std::string
withWord(std::string bytes, size_t offset, uint64_t word)
{
    bytes.replace(offset, sizeof(word),
                  reinterpret_cast<const char *>(&word), sizeof(word));
    return bytes;
}

TEST(TraceDataset, OpenClassifiesEnvironmentalFailures)
{
    TempStore store("classify");
    const TraceConfig config = smallConfig();
    const TraceDataset original = store->acquire(config, 3);
    const std::string path = store->entryPath(config);
    const std::string bytes = fileBytes(path);

    EXPECT_EQ(openFailure(path + ".missing"), ErrorCode::NotFound);
    // Neither a directory nor a device is a regular file, whatever
    // size it reports.
    EXPECT_EQ(openFailure(store.dir().string()), ErrorCode::IoError);
    EXPECT_EQ(openFailure("/dev/null"), ErrorCode::IoError);

    // Each damaged entry classifies, and the store regenerates over
    // it like any bad entry.
    const size_t batch1 =
        format::headerBytes(config) + format::batchRecordBytes(config);
    const struct
    {
        const char *what;
        std::string bytes;
        ErrorCode code;
    } damaged[] = {
        // Bytes 8-15 are the u32 version, then its zero pad.
        {"future version",
         withWord(bytes, 8, format::kTraceFormatVersion + 9),
         ErrorCode::VersionMismatch},
        {"0 bytes", "", ErrorCode::Truncated},
        {"short header", bytes.substr(0, 20), ErrorCode::Truncated},
        {"payload cut mid-batch", bytes.substr(0, bytes.size() - 3),
         ErrorCode::Truncated},
        {"bad index word", withWord(bytes, batch1, 7), ErrorCode::Corrupt},
        {"out-of-range row",
         withWord(bytes, bytes.size() - 8, config.rows_per_table),
         ErrorCode::Corrupt},
    };
    for (const auto &damage : damaged) {
        SCOPED_TRACE(damage.what);
        std::ofstream(path, std::ios::binary | std::ios::trunc)
            << damage.bytes;
        EXPECT_EQ(openFailure(path), damage.code);
        TraceStore::AcquireInfo info;
        const TraceDataset recovered = store->acquire(config, 3, &info);
        EXPECT_FALSE(info.cache_hit);
        EXPECT_EQ(info.load_status.code(), damage.code);
        EXPECT_TRUE(info.published);
        expectDatasetsEqual(recovered, original);
    }
}

TEST(TraceStore, ExperimentRunnerServesIdenticalResultsFromCache)
{
    const fs::path dir =
        fs::path(::testing::TempDir()) / "sp_store_test_runner";
    fs::remove_all(dir);

    sys::ModelConfig model = sys::ModelConfig::paperDefault();
    model.trace = smallConfig();
    model.embedding_dim = 8;
    sys::ExperimentOptions options;
    options.iterations = 3;
    options.warmup = 1;
    const auto hw = sim::HardwareConfig::paperTestbed();

    // Uncached baseline.
    const auto baseline =
        sys::ExperimentRunner(model, hw, options).run("hybrid");

    std::string cold_json, warm_json;
    {
        CacheEnabledGuard guard(dir.string());
        cold_json =
            sys::ExperimentRunner(model, hw, options).run("hybrid")
                .toJson();
        EXPECT_TRUE(
            fs::exists(dir / (model.trace.fingerprint() + ".sptrace")));
        warm_json =
            sys::ExperimentRunner(model, hw, options).run("hybrid")
                .toJson();
    }
    EXPECT_EQ(cold_json, baseline.toJson());
    EXPECT_EQ(warm_json, cold_json);
    fs::remove_all(dir);
}

} // namespace
} // namespace sp::data
