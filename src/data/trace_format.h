/**
 * @file
 * On-disk trace format (internal to src/data).
 *
 * One header codec shared by TraceDataset::open() and saveTo(), so the
 * reader and the writer can never drift. The record layout below is
 * also the in-memory form of every trace: a generated trace is a
 * buffer of these records, and an opened file is served in place.
 *
 * Layout (version 3; all fields native-endian, written raw):
 *
 *   u64 magic            "SCRTPIPE"
 *   u32 version          kTraceFormatVersion
 *   u32 pad              0 (keeps the rest of the header 8-aligned)
 *   u64 num_tables
 *   u64 rows_per_table
 *   u64 lookups_per_table
 *   u64 batch_size
 *   u64 locality
 *   u64 seed
 *   u64 dense_features
 *   f64 wl_drift_amp     -- workload shaping block (workload.h); all
 *   u64 wl_drift_period     zero for a stationary trace --
 *   u64 wl_churn_k
 *   u64 wl_churn_period
 *   f64 wl_burst_frac
 *   u64 wl_burst_period
 *   u64 wl_burst_len
 *   u64 wl_burst_ranks
 *   u64 wl_phase
 *   u64 num_exponents    0, or num_tables per-table Zipf exponents
 *   f64 exponents[num_exponents]
 *   u64 num_batches
 *   -- then num_batches records of --
 *   u64 batch_index
 *   u64 ids[num_tables][batch_size * lookups_per_table]
 *
 * Every batch record has the same computable size, so a reader can mmap
 * the file and serve any (batch, table) ID slice as a pointer into the
 * mapping: the ID payload is always 8-byte aligned (the header size and
 * each record are multiples of 8 bytes).
 *
 * Version 1 files omitted the per-table exponents; version 2 files
 * stored 32-bit IDs (truncating tables above 2^32 rows) and knew no
 * workload block. Both are rejected with a regenerate hint: an
 * incompletely described trace must never be served from the
 * content-addressed cache.
 */

#ifndef SP_DATA_TRACE_FORMAT_H
#define SP_DATA_TRACE_FORMAT_H

#include <cstdint>
#include <iosfwd>
#include <string>

#include "data/trace.h"

namespace sp::data::format
{

inline constexpr uint64_t kMagic = 0x5343525450495045ull; // "SCRTPIPE"
inline constexpr uint32_t kTraceFormatVersion = 3;
/** Header size without per-table exponents: magic, version and pad,
 *  seven geometry words, the nine-word workload block, num_exponents
 *  and num_batches. No shorter file can be a trace. */
inline constexpr uint64_t kMinHeaderBytes = 8 + 4 + 4 + 8 * 18;

/** Decoded and validated file header. */
struct TraceFileHeader
{
    TraceConfig config;
    uint64_t num_batches = 0;
};

/** Exact header size for `config` (depends on per-table exponents). */
uint64_t headerBytes(const TraceConfig &config);

/** Size of one batch record: index word + the ID payload. */
uint64_t batchRecordBytes(const TraceConfig &config);

/** Write the v3 header. The caller checks stream state. */
void writeHeader(std::ostream &os, const TraceConfig &config,
                 uint64_t num_batches);

/**
 * Decode the header at the start of the file bytes [data, data +
 * size). Throws StatusError (mentioning `path`) on a short header, bad
 * magic or an unsupported version.
 */
TraceFileHeader parseHeader(const unsigned char *data, uint64_t size,
                            const std::string &path);

/**
 * Semantic header validation: field sanity bounds (also overflow
 * guards for the record-size arithmetic) and a batch count that
 * exactly matches `file_bytes`. Throws StatusError on violation.
 */
void validateHeader(const TraceFileHeader &header, uint64_t file_bytes,
                    const std::string &path);

} // namespace sp::data::format

#endif // SP_DATA_TRACE_FORMAT_H
