/**
 * @file
 * Content-addressed, process-shared trace cache.
 *
 * The paper's evaluation sweeps many system configurations over the
 * *same* materialised trace, yet every driver used to regenerate it
 * per process. TraceStore maps TraceConfig::fingerprint() to a file
 * under a cache directory (SP_TRACE_CACHE, default `.sp-trace-cache/`)
 * so the first driver pays generation once and every later run --
 * any process, any driver -- warm-starts with an mmap plus header
 * validation (TraceDataset::open).
 *
 * Guarantees:
 *  - Atomic publication: entries are written to a temp file and
 *    rename()d into place, so a concurrent reader can never observe a
 *    torn file. Two processes racing on the same fingerprint both
 *    succeed; the identical content makes last-rename-wins harmless.
 *  - Poison-proof: a loaded entry's header config is compared
 *    field-by-field against the requested config (fingerprints collide
 *    in principle; silent mismatch would poison every downstream
 *    result). Mismatches and corrupt or truncated entries are treated
 *    as misses and regenerated over the bad file.
 *  - Prefix serving: an entry holding N batches serves any request for
 *    n <= N batches; a request for more regenerates and republishes.
 *
 * The transparent-cache switch (setCacheEnabled) is process-wide and
 * off by default at the library level; drivers opt in (spsim and the
 * bench prologue do, with a --no-trace-cache opt-out). Setting the
 * SP_TRACE_CACHE environment variable to `0`, `off` or `none`
 * disables caching regardless of the switch.
 */

#ifndef SP_DATA_TRACE_STORE_H
#define SP_DATA_TRACE_STORE_H

#include <cstdint>
#include <optional>
#include <string>

#include "common/status.h"
#include "data/dataset.h"
#include "data/trace.h"

namespace sp::data
{

/** Fingerprint-keyed trace cache over one directory. */
class TraceStore
{
  public:
    struct Options
    {
        /** Cache directory; empty resolves SP_TRACE_CACHE, then the
         *  `.sp-trace-cache` default. */
        std::string directory;
    };

    /** How one acquire() was satisfied (logging, benches, tests). */
    struct AcquireInfo
    {
        /** Served from an existing valid entry. */
        bool cache_hit = false;
        /** This call generated and (re)published the entry. */
        bool published = false;
        /** Why an existing entry was rejected (ok on a hit, or when
         *  no entry existed at all). */
        sp::Status load_status;
        /** Why publication failed (ok when it succeeded or was not
         *  attempted). */
        sp::Status publish_status;
    };

    /** Store over the default directory (SP_TRACE_CACHE fallback). */
    TraceStore();
    explicit TraceStore(const Options &options);

    const std::string &directory() const { return directory_; }

    /** The entry file a config maps to (exists or not). */
    std::string entryPath(const TraceConfig &config) const;

    /**
     * The one-call API: return a dataset of exactly `num_batches`
     * batches for `config`, from the cache when a valid entry covers
     * it, otherwise by generating and atomically publishing one.
     * Never fails because of cache trouble: corrupt, truncated or
     * version-mismatched entries are regenerated over, transient
     * rename races are retried with backoff, and publication errors
     * (read-only or full disk) degrade to an uncached in-memory
     * dataset with a rate-limited warning on stderr. The classified
     * causes are reported through `info` for callers that care.
     */
    TraceDataset acquire(const TraceConfig &config, uint64_t num_batches,
                         AcquireInfo *info = nullptr) const;

    /**
     * Process-wide transparent-cache switch consulted by
     * sys::ExperimentRunner. Off by default; drivers enable it.
     */
    static void setCacheEnabled(bool enabled);

    /** The switch, also gated on SP_TRACE_CACHE != 0|off|none. */
    static bool cacheEnabled();

  private:
    std::optional<TraceDataset> loadEntry(const TraceConfig &config,
                                          uint64_t num_batches,
                                          const std::string &path,
                                          sp::Status *load_status) const;
    sp::Status publish(const TraceDataset &dataset,
                       const std::string &path) const;

    std::string directory_;
};

} // namespace sp::data

#endif // SP_DATA_TRACE_STORE_H
