#include "data/trace_store.h"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <random>
#include <system_error>
#include <thread>

#include <unistd.h>

#include "common/fault.h"
#include "common/logging.h"
#include "common/status.h"

namespace sp::data
{

namespace fs = std::filesystem;

namespace
{

std::atomic<bool> g_cache_enabled{false};

const char *
cacheEnv()
{
    return std::getenv("SP_TRACE_CACHE");
}

bool
envDisablesCache()
{
    const char *value = cacheEnv();
    if (value == nullptr)
        return false;
    const std::string text(value);
    return text == "0" || text == "off" || text == "none";
}

std::string
defaultDirectory()
{
    const char *value = cacheEnv();
    if (value != nullptr && *value != '\0' && !envDisablesCache())
        return value;
    return ".sp-trace-cache";
}

/** Process- and call-unique temp suffix so concurrent publishers of
 *  one fingerprint never collide before their atomic rename. */
std::string
tempSuffix()
{
    static std::atomic<uint64_t> sequence{0};
    // The entropy below only names a temp file (uniqueness across
    // racing publishers); trace *content* stays a pure function of
    // the config fingerprint, so determinism is not at stake.
    static const uint64_t token =
        // splint:allow(no-nondeterminism): temp-file naming only
        (static_cast<uint64_t>(std::random_device{}()) << 32) ^
        // splint:allow(no-nondeterminism): temp-file naming only
        std::random_device{}();
    return ".tmp." + std::to_string(::getpid()) + "." +
           std::to_string(token % 1000000) + "." +
           std::to_string(sequence.fetch_add(1));
}

/** Rename attempts per publish (first try + retries with backoff). */
constexpr int kRenameAttempts = 3;

/** Removes the publish temp file on every failure path; commit()
 *  after a successful rename keeps the (now nonexistent) temp name
 *  from being unlinked needlessly. Being RAII it also covers exits
 *  publish() never anticipated -- a bad_alloc, an injected fault. */
class TempFileGuard
{
  public:
    explicit TempFileGuard(std::string path) : path_(std::move(path)) {}

    ~TempFileGuard()
    {
        if (committed_)
            return;
        std::error_code ec;
        fs::remove(path_, ec);
    }

    TempFileGuard(const TempFileGuard &) = delete;
    TempFileGuard &operator=(const TempFileGuard &) = delete;

    void
    commit()
    {
        committed_ = true;
    }

  private:
    std::string path_;
    bool committed_ = false;
};

/**
 * Does the current entry at `path` already hold a valid trace for
 * `config` covering at least `num_batches`? Used to avoid replacing a
 * longer published entry with a shorter one when publishers race with
 * different batch counts (the shorter file would silently defeat every
 * later warm start). The entry's first `num_batches` records pass the
 * load's checks too, or a corrupt entry would never be replaced.
 */
bool
entryCovers(const TraceConfig &config, uint64_t num_batches,
            const std::string &path)
{
    try {
        const TraceDataset entry = TraceDataset::open(path, num_batches);
        return entry.config() == config &&
               entry.numBatches() >= num_batches;
    } catch (const FatalError &) {
        return false;
    }
}

} // namespace

TraceStore::TraceStore() : TraceStore(Options{}) {}

TraceStore::TraceStore(const Options &options)
    : directory_(options.directory.empty() ? defaultDirectory()
                                           : options.directory)
{
}

std::string
TraceStore::entryPath(const TraceConfig &config) const
{
    return (fs::path(directory_) / (config.fingerprint() + ".sptrace"))
        .string();
}

std::optional<TraceDataset>
TraceStore::loadEntry(const TraceConfig &config, uint64_t num_batches,
                      const std::string &path,
                      sp::Status *load_status) const
{
    std::error_code ec;
    if (!fs::exists(path, ec) || ec)
        return std::nullopt;
    try {
        SP_FAULT_POINT("trace_store.load");
        TraceDataset dataset = TraceDataset::open(path, num_batches);
        // Poison guard: the fingerprint addressed the file, but the
        // *full* config must match field-by-field -- a hash collision
        // or a stale hand-edited entry must read as a miss, never as
        // silently wrong IDs.
        if (!(dataset.config() == config)) {
            *load_status = Status::error(
                ErrorCode::Corrupt,
                "'" + path + "' holds a different config than its "
                "fingerprint promises");
            return std::nullopt;
        }
        // A shorter entry cannot serve this request; regenerate.
        if (dataset.numBatches() < num_batches) {
            *load_status = Status::error(
                ErrorCode::Truncated,
                "'" + path + "' holds fewer batches than requested");
            return std::nullopt;
        }
        return dataset;
    } catch (const StatusError &error) {
        // Truncated/corrupt/unmappable entry: treat as a classified
        // miss; the caller regenerates and republishes over it.
        *load_status = error.status();
        return std::nullopt;
    } catch (const FatalError &error) {
        *load_status = Status::error(ErrorCode::IoError, error.what());
        return std::nullopt;
    }
}

sp::Status
TraceStore::publish(const TraceDataset &dataset,
                    const std::string &path) const
{
    const std::string tmp = path + tempSuffix();
    TempFileGuard guard(tmp);
    sp::Status status;
    try {
        std::error_code ec;
        fs::create_directories(directory_, ec);
        if (ec) {
            status = Status::error(
                ErrorCode::IoError, "cannot create trace cache "
                "directory '" + directory_ + "': " + ec.message());
        } else {
            SP_FAULT_POINT("trace_store.publish.save");
            status = dataset.saveTo(tmp);
        }
        // Atomic publication: rename() replaces any existing entry in
        // one step, so concurrent readers see the old file or the new
        // one, never a torn write. A failed rename may be a transient
        // race (e.g. the target directory being recreated, NFS
        // blips), so it gets a bounded retry with backoff before the
        // run degrades to uncached.
        for (int attempt = 0; status.ok(); ++attempt) {
            try {
                SP_FAULT_POINT("trace_store.publish.rename");
                fs::rename(tmp, path, ec);
            } catch (const common::fault::FaultInjectedError &e) {
                ec = std::make_error_code(std::errc::io_error);
                status = e.status();
            }
            if (!ec) {
                guard.commit();
                return sp::Status();
            }
            if (attempt + 1 >= kRenameAttempts) {
                if (status.ok())
                    status = Status::error(
                        ErrorCode::IoError, "cannot publish trace "
                        "cache entry '" + path + "': " + ec.message());
                break;
            }
            status = sp::Status();
            std::this_thread::sleep_for(
                std::chrono::milliseconds(1 << attempt));
        }
    } catch (const StatusError &error) {
        status = error.status();
    } catch (const FatalError &error) {
        status = Status::error(ErrorCode::IoError, error.what());
    }
    // Cache trouble (read-only directory, disk full) must not kill
    // the run -- the dataset is already in memory. Leave a loud (but
    // rate-limited: sweeps retry per spec) hint and carry on
    // uncached; the guard unlinks the temp file on this path.
    warnRateLimited("trace_store.publish",
                    "trace cache publication failed (" +
                        status.toString() + "); continuing uncached");
    return status;
}

TraceDataset
TraceStore::acquire(const TraceConfig &config, uint64_t num_batches,
                    AcquireInfo *info) const
{
    fatalIf(num_batches == 0, "dataset needs at least one batch");
    const std::string path = entryPath(config);

    sp::Status load_status;
    if (auto cached = loadEntry(config, num_batches, path, &load_status)) {
        if (info != nullptr) {
            *info = AcquireInfo();
            info->cache_hit = true;
        }
        return std::move(*cached);
    }

    TraceDataset fresh(config, num_batches);
    // While we generated, a racing publisher may have landed an entry
    // that already covers this request (possibly with *more* batches
    // than ours); renaming over it would shrink the cache for every
    // later consumer, so re-peek and only publish when ours improves
    // on what's there. A longer entry landing inside the tiny
    // check-to-rename window can still be clobbered -- without file
    // locks that race is irreducible -- but the next longer request
    // simply regenerates and heals the entry.
    sp::Status publish_status;
    bool published = false;
    if (!entryCovers(config, num_batches, path)) {
        publish_status = publish(fresh, path);
        published = publish_status.ok();
    }
    if (info != nullptr) {
        *info = AcquireInfo();
        info->published = published;
        info->load_status = load_status;
        info->publish_status = publish_status;
    }
    return fresh;
}

void
TraceStore::setCacheEnabled(bool enabled)
{
    g_cache_enabled.store(enabled, std::memory_order_relaxed);
}

bool
TraceStore::cacheEnabled()
{
    return g_cache_enabled.load(std::memory_order_relaxed) &&
           !envDisablesCache();
}

} // namespace sp::data
