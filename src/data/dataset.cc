#include "data/dataset.h"

#include <algorithm>
#include <cerrno>
#include <fstream>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include "common/fault.h"
#include "common/logging.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "data/trace_format.h"

namespace sp::data
{

namespace
{

/** Closes a descriptor on every exit from open(); a mapping outlives
 *  the descriptor it was made from. */
struct FileDescriptor
{
    explicit FileDescriptor(int descriptor) : fd(descriptor) {}
    FileDescriptor(const FileDescriptor &) = delete;
    FileDescriptor &operator=(const FileDescriptor &) = delete;
    ~FileDescriptor()
    {
        if (fd >= 0)
            ::close(fd);
    }

    const int fd;
};

/** Classify a failed write by errno: a full disk is the one cause
 *  callers degrade differently for (it clears on its own; retrying a
 *  corrupt path never will). */
sp::Status
writeFailure(const std::string &path, const char *stage)
{
    const ErrorCode code =
        errno == ENOSPC ? ErrorCode::NoSpace : ErrorCode::IoError;
    return Status::error(code, std::string("I/O error while ") + stage +
                                   " '" + path + "'");
}

} // namespace

TraceDataset::TraceDataset(const TraceConfig &config) : generator_(config)
{
}

TraceDataset::TraceDataset(const TraceConfig &config, uint64_t num_batches)
    : generator_(config)
{
    fatalIf(num_batches == 0, "dataset needs at least one batch");
    // The geometry comes from the user: refuse one whose buffer size
    // wraps instead of writing past a short allocation.
    uint64_t ids = 0, words = 0;
    fatalIf(__builtin_mul_overflow(config.num_tables,
                                   config.idsPerTable(), &ids) ||
                __builtin_mul_overflow(num_batches, ids + 1, &words),
            "a trace of ", num_batches, " batches of ",
            config.idsPerBatch(), " IDs does not fit in memory");
    // Left uninitialised: each pool task faults in the pages of the
    // records it writes, so no serial memset precedes the fill.
    const std::shared_ptr<uint64_t[]> records =
        std::make_unique_for_overwrite<uint64_t[]>(words);
    // Each batch is an independent seeded stream (deterministic per
    // index, see trace.h), so generation parallelises with
    // bit-identical results: task b only writes record b.
    const size_t record_words = config.recordWords();
    common::parallelFor(num_batches, [&](size_t b) {
        generator_.writeRecord(
            b, {records.get() + b * record_words, record_words});
    });
    adopt(records, records.get(), num_batches, "");
}

TraceDataset
TraceDataset::open(const std::string &path, uint64_t max_batches)
{
    const FileDescriptor file(::open(path.c_str(), O_RDONLY));
    failIf(file.fd < 0,
           errno == ENOENT ? ErrorCode::NotFound : ErrorCode::IoError,
           "cannot open '", path, "'");
    struct stat st = {};
    failIf(::fstat(file.fd, &st) != 0, ErrorCode::IoError,
           "cannot stat '", path, "'");
    // A directory opens for reading but maps nothing.
    failIf(!S_ISREG(st.st_mode), ErrorCode::IoError, "'", path,
           "' is not a regular file");
    // mmap refuses an empty file, and no shorter file holds a header.
    const uint64_t size = static_cast<uint64_t>(st.st_size);
    failIf(size < format::kMinHeaderBytes, ErrorCode::Truncated, "'",
           path, "' is truncated inside the trace header");
    SP_FAULT_POINT("dataset.open.mmap");
    void *mapping =
        ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, file.fd, 0);
    failIf(mapping == MAP_FAILED, ErrorCode::IoError, "mmap of '", path,
           "' (", size, " bytes) failed");
    const std::shared_ptr<const void> records(
        mapping, [size](const void *region) {
            ::munmap(const_cast<void *>(region), size);
        });

    const auto *bytes = static_cast<const unsigned char *>(mapping);
    const format::TraceFileHeader header =
        format::parseHeader(bytes, size, path);
    format::validateHeader(header, size, path);
    const TraceConfig &config = header.config;
    // validateHeader proved the batch count against the file size;
    // re-derive the size from the arithmetic adopt() uses, so the
    // validator and the accessor can never drift apart (every span
    // served is inside the file iff this holds).
    SP_ASSERT(format::headerBytes(config) +
                      header.num_batches *
                          format::batchRecordBytes(config) ==
                  size,
              "trace '", path, "': accessor arithmetic disagrees with "
              "the validated file size ", size);
    TraceDataset dataset(config);
    // The header is a whole number of words (see trace_format.h), so
    // the records are 8-aligned and the cast is well-defined.
    dataset.adopt(records,
                  reinterpret_cast<const uint64_t *>(
                      bytes + format::headerBytes(config)),
                  max_batches == 0
                      ? header.num_batches
                      : std::min(max_batches, header.num_batches),
                  path);
    return dataset;
}

void
TraceDataset::adopt(std::shared_ptr<const void> records,
                    const uint64_t *first, uint64_t num_batches,
                    const std::string &path)
{
    records_ = std::move(records);
    // No ID bytes move -- each batch is a span into the records, built
    // in O(1). A file's records are validated here, where TraceStore
    // can still classify a bad entry as a miss and regenerate it, not
    // as a panic in the middle of a simulation: every index word must
    // match its position, and every ID must lie in [0,
    // rows_per_table), since every system indexes by row. The ID scan
    // faults a whole mapping in at open; generated traces are in range
    // by construction and skip it.
    const bool from_file = !path.empty();
    const uint64_t rows = config().rows_per_table;
    const size_t words = config().recordWords();
    batches_.reserve(num_batches);
    for (uint64_t b = 0; b < num_batches; ++b) {
        batches_.push_back(
            MiniBatch::fromRecord({first + b * words, words}, config()));
        const MiniBatch &batch = batches_.back();
        failIf(batch.index != b, ErrorCode::Corrupt, "'", path,
               "' stores batch index ", batch.index, " at position ", b,
               "; the file is corrupt");
        if (!from_file)
            continue;
        const auto ids = batch.all_ids;
        const auto bad = std::ranges::find_if(
            ids, [rows](uint64_t id) { return id >= rows; });
        if (bad != ids.end())
            failWith(ErrorCode::Corrupt, "'", path, "' stores row ID ",
                     *bad, " in batch ", b, ", table ",
                     (bad - ids.begin()) / batch.idsPerTable(),
                     ", outside its ", rows, " rows; the file is corrupt");
    }
}

const MiniBatch &
TraceDataset::batch(uint64_t index) const
{
    // splint:allow(io-status): caller-bug bounds check, not I/O
    panicIf(index >= batches_.size(), "batch index ", index,
            " out of range (", batches_.size(), " batches)");
    return batches_[index];
}

const MiniBatch *
TraceDataset::lookAhead(uint64_t index, uint64_t distance) const
{
    // distance is caller-controlled (future-window sweeps); index +
    // distance could wrap and alias a stale in-range batch, so bound
    // the distance against the remaining trace instead of summing.
    if (index >= batches_.size())
        return nullptr;
    if (distance >= batches_.size() - index)
        return nullptr;
    return &batches_[index + distance];
}

tensor::Matrix
TraceDataset::denseFeatures(uint64_t index) const
{
    return generator_.makeDenseFeatures(index);
}

tensor::Matrix
TraceDataset::labels(uint64_t index) const
{
    return generator_.makeLabels(batch(index));
}

sp::Status
TraceDataset::saveTo(const std::string &path) const
{
    errno = 0;
    std::ofstream os(path, std::ios::binary);
    if (!os)
        return writeFailure(path, "opening");

    try {
        format::writeHeader(os, config(), numBatches());
        for (const MiniBatch &batch : batches_) {
            SP_FAULT_POINT("dataset.save.write");
            os.write(reinterpret_cast<const char *>(&batch.index),
                     sizeof(batch.index));
            os.write(reinterpret_cast<const char *>(batch.all_ids.data()),
                     static_cast<std::streamsize>(
                         batch.all_ids.size_bytes()));
        }
    } catch (const StatusError &e) {
        return e.status();
    }
    // Durability: a full disk or short write may only surface at
    // flush/close time; check both so a truncated file is reported
    // here rather than as a corruption error at some later open().
    os.flush();
    if (!os)
        return writeFailure(path, "writing");
    os.close();
    if (os.fail())
        return writeFailure(path, "closing");
    return sp::Status();
}

} // namespace sp::data
