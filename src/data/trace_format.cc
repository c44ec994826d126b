#include "data/trace_format.h"

#include <cstring>
#include <ostream>

#include "common/status.h"

namespace sp::data::format
{

namespace
{

// Sanity bounds on header fields. They reject garbage from corrupt or
// hostile files before any allocation happens, and they keep the
// record-size products far below uint64_t overflow (the caps multiply
// out to < 2^52 bytes per record).
constexpr uint64_t kMaxTables = 1u << 16;
constexpr uint64_t kMaxBatchSize = 1u << 24;
constexpr uint64_t kMaxLookups = 1u << 20;
constexpr uint64_t kMaxDenseFeatures = 1u << 20;

template <typename T>
void
writePod(std::ostream &os, const T &value)
{
    os.write(reinterpret_cast<const char *>(&value), sizeof(T));
}

/** Sequential reader over the header bytes. */
class Cursor
{
  public:
    Cursor(const unsigned char *data, uint64_t size,
           const std::string &path)
        : data_(data), size_(size), path_(path)
    {
    }

    template <typename T>
    T
    next()
    {
        failIf(offset_ + sizeof(T) > size_, ErrorCode::Truncated, "'",
               path_, "' is truncated inside the trace header");
        T value{};
        std::memcpy(&value, data_ + offset_, sizeof(T));
        offset_ += sizeof(T);
        return value;
    }

  private:
    const unsigned char *data_;
    uint64_t size_;
    uint64_t offset_ = 0;
    const std::string &path_;
};

} // namespace

TraceFileHeader
parseHeader(const unsigned char *data, uint64_t size,
            const std::string &path)
{
    Cursor cursor(data, size, path);
    const uint64_t magic = cursor.next<uint64_t>();
    const uint32_t version = cursor.next<uint32_t>();
    failIf(magic != kMagic, ErrorCode::Corrupt, "'", path,
           "' is not a ScratchPipe trace");
    failIf(version != kTraceFormatVersion, ErrorCode::VersionMismatch,
           "'", path,
           "' has unsupported trace version ", version, " (expected ",
           kTraceFormatVersion,
            "); regenerate the trace -- pre-v3 files stored truncated "
            "32-bit IDs and did not record every generator field");
    cursor.next<uint32_t>(); // alignment pad

    TraceFileHeader header;
    TraceConfig &config = header.config;
    config.num_tables = cursor.next<uint64_t>();
    config.rows_per_table = cursor.next<uint64_t>();
    config.lookups_per_table = cursor.next<uint64_t>();
    config.batch_size = cursor.next<uint64_t>();
    const uint64_t locality = cursor.next<uint64_t>();
    failIf(locality > static_cast<uint64_t>(Locality::High),
           ErrorCode::Corrupt, "'", path,
           "' names unknown locality preset ", locality);
    config.locality = static_cast<Locality>(locality);
    config.seed = cursor.next<uint64_t>();
    config.dense_features = cursor.next<uint64_t>();
    config.workload.drift_amp = cursor.next<double>();
    config.workload.drift_period = cursor.next<uint64_t>();
    config.workload.churn_k = cursor.next<uint64_t>();
    config.workload.churn_period = cursor.next<uint64_t>();
    config.workload.burst_frac = cursor.next<double>();
    config.workload.burst_period = cursor.next<uint64_t>();
    config.workload.burst_len = cursor.next<uint64_t>();
    config.workload.burst_ranks = cursor.next<uint64_t>();
    config.workload.phase = cursor.next<uint64_t>();
    const uint64_t num_exponents = cursor.next<uint64_t>();
    failIf(num_exponents != 0 && num_exponents != config.num_tables,
           ErrorCode::Corrupt, "'", path, "' has ", num_exponents,
           " per-table exponents for ", config.num_tables, " tables");
    failIf(num_exponents > kMaxTables, ErrorCode::Corrupt, "'", path,
           "' header is implausible (", num_exponents, " exponents)");
    config.per_table_exponents.resize(num_exponents);
    for (uint64_t t = 0; t < num_exponents; ++t)
        config.per_table_exponents[t] = cursor.next<double>();
    header.num_batches = cursor.next<uint64_t>();
    return header;
}

uint64_t
headerBytes(const TraceConfig &config)
{
    return kMinHeaderBytes +
           8 * static_cast<uint64_t>(config.per_table_exponents.size());
}

uint64_t
batchRecordBytes(const TraceConfig &config)
{
    return sizeof(uint64_t) * config.recordWords();
}

void
writeHeader(std::ostream &os, const TraceConfig &config,
            uint64_t num_batches)
{
    writePod(os, kMagic);
    writePod(os, kTraceFormatVersion);
    writePod(os, uint32_t{0}); // alignment pad
    writePod(os, static_cast<uint64_t>(config.num_tables));
    writePod(os, config.rows_per_table);
    writePod(os, static_cast<uint64_t>(config.lookups_per_table));
    writePod(os, static_cast<uint64_t>(config.batch_size));
    writePod(os, static_cast<uint64_t>(config.locality));
    writePod(os, config.seed);
    writePod(os, static_cast<uint64_t>(config.dense_features));
    writePod(os, config.workload.drift_amp);
    writePod(os, config.workload.drift_period);
    writePod(os, config.workload.churn_k);
    writePod(os, config.workload.churn_period);
    writePod(os, config.workload.burst_frac);
    writePod(os, config.workload.burst_period);
    writePod(os, config.workload.burst_len);
    writePod(os, config.workload.burst_ranks);
    writePod(os, config.workload.phase);
    writePod(os,
             static_cast<uint64_t>(config.per_table_exponents.size()));
    for (const double exponent : config.per_table_exponents)
        writePod(os, exponent);
    writePod(os, num_batches);
}

void
validateHeader(const TraceFileHeader &header, uint64_t file_bytes,
               const std::string &path)
{
    const TraceConfig &config = header.config;
    failIf(config.num_tables == 0 || config.num_tables > kMaxTables,
           ErrorCode::Corrupt,
           "'", path, "' header is implausible (", config.num_tables,
           " tables)");
    failIf(config.rows_per_table == 0, ErrorCode::Corrupt, "'", path,
           "' header is implausible (zero rows per table)");
    failIf(config.batch_size == 0 || config.batch_size > kMaxBatchSize,
           ErrorCode::Corrupt,
           "'", path, "' header is implausible (batch size ",
           config.batch_size, ")");
    failIf(config.lookups_per_table == 0 ||
               config.lookups_per_table > kMaxLookups,
           ErrorCode::Corrupt, "'", path, "' header is implausible (",
           config.lookups_per_table, " lookups per table)");
    failIf(config.dense_features > kMaxDenseFeatures, ErrorCode::Corrupt,
           "'", path, "' header is implausible (", config.dense_features,
           " dense features)");
    failIf(header.num_batches == 0, ErrorCode::Corrupt, "'", path,
           "' holds no batches");
    const std::string workload_error =
        config.workload.validationError(config.rows_per_table);
    failIf(!workload_error.empty(), ErrorCode::Corrupt, "'", path,
           "' has an impossible workload block: ", workload_error);

    // Divide instead of multiplying record size by the (untrusted)
    // batch count, so an absurd count cannot overflow the check.
    const uint64_t header_bytes = headerBytes(config);
    const uint64_t record_bytes = batchRecordBytes(config);
    const uint64_t payload =
        file_bytes >= header_bytes ? file_bytes - header_bytes : 0;
    failIf(file_bytes < header_bytes ||
               payload % record_bytes != 0 ||
               payload / record_bytes != header.num_batches,
           ErrorCode::Truncated,
           "'", path, "' is ", file_bytes, " bytes but its header "
           "describes ", header.num_batches, " batches of ",
           record_bytes, " bytes; the file is truncated or corrupt");
}

} // namespace sp::data::format
