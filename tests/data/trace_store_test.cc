/**
 * @file
 * Content-addressed trace cache tests: fingerprint stability and
 * sensitivity, cold/warm acquisition, mmap-vs-eager identity,
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
#include "data/trace_view.h"
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
    explicit TempStore(const std::string &name, bool use_mmap = true)
        : dir_(fs::path(::testing::TempDir()) /
               ("sp_store_test_" + name))
    {
        fs::remove_all(dir_);
        TraceStore::Options options;
        options.directory = dir_.string();
        options.use_mmap = use_mmap;
        store_ = std::make_unique<TraceStore>(options);
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
    EXPECT_EQ(info.mapped, TraceView::supported());
    expectDatasetsEqual(cold, warm);
    // Labels/dense features regenerate from the round-tripped config.
    EXPECT_TRUE(tensor::Matrix::identical(cold.labels(2),
                                          warm.labels(2)));
    EXPECT_TRUE(tensor::Matrix::identical(cold.denseFeatures(3),
                                          warm.denseFeatures(3)));
}

TEST(TraceStore, MappedAndEagerHitsServeIdenticalBatches)
{
    // A trace's three sources -- the generator's buffer, a file
    // mapping and one read of the file -- serve identical batches and
    // save identical bytes.
    TempStore mapped_store("mmap_vs_eager", true);
    const TraceConfig config = smallConfig();
    const TraceDataset generated = mapped_store->acquire(config, 5);

    TraceStore::Options eager_options;
    eager_options.directory = mapped_store.dir().string();
    eager_options.use_mmap = false;
    const TraceStore eager_store(eager_options);

    TraceStore::AcquireInfo info;
    const TraceDataset via_map = mapped_store->acquire(config, 5, &info);
    EXPECT_EQ(info.mapped, TraceView::supported());
    EXPECT_EQ(via_map.isMapped(), TraceView::supported());
    const TraceDataset via_read = eager_store.acquire(config, 5, &info);
    EXPECT_TRUE(info.cache_hit);
    EXPECT_FALSE(info.mapped);
    EXPECT_FALSE(via_read.isMapped());

    expectDatasetsEqual(generated, via_map);
    expectDatasetsEqual(via_map, via_read);
    // The entry itself is generated.saveTo()'s output.
    const auto bytes = [](const fs::path &path) {
        std::ostringstream os;
        os << std::ifstream(path, std::ios::binary).rdbuf();
        return os.str();
    };
    const fs::path copy = mapped_store.dir() / "copy.sptrace";
    for (const TraceDataset *dataset : {&via_map, &via_read}) {
        ASSERT_TRUE(dataset->saveTo(copy.string()).ok());
        EXPECT_EQ(bytes(copy), bytes(mapped_store->entryPath(config)));
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

/** The code a failing load() throws, or Ok when it loads. */
ErrorCode
loadFailure(const std::string &path)
try {
    TraceDataset::load(path);
    return ErrorCode::Ok;
} catch (const StatusError &error) {
    return error.status().code();
}

TEST(TraceDataset, LoadClassifiesEnvironmentalFailures)
{
    TempStore store("classify");
    const TraceConfig config = smallConfig();
    store->acquire(config, 3);
    const std::string path = store->entryPath(config);

    EXPECT_EQ(loadFailure(path + ".missing"), ErrorCode::NotFound);

    // Rewrite the u32 version field (byte offset 8) to a future
    // version: valid magic, unsupported format.
    {
        std::fstream file(path,
                          std::ios::binary | std::ios::in | std::ios::out);
        file.seekp(8);
        const uint32_t bad_version = format::kTraceFormatVersion + 9;
        file.write(reinterpret_cast<const char *>(&bad_version),
                   sizeof(bad_version));
    }
    EXPECT_EQ(loadFailure(path), ErrorCode::VersionMismatch);
    // And the store degrades it to a regenerate, like any bad entry.
    TraceStore::AcquireInfo info;
    const TraceDataset recovered = store->acquire(config, 3, &info);
    EXPECT_FALSE(info.cache_hit);
    EXPECT_EQ(info.load_status.code(), ErrorCode::VersionMismatch);
    EXPECT_EQ(recovered.numBatches(), 3u);

    fs::resize_file(path, fs::file_size(path) - 3);
    EXPECT_EQ(loadFailure(path), ErrorCode::Truncated);
    EXPECT_THROW(TraceDataset::mapped(path), StatusError);
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
