#include "data/trace_view.h"

#include <cerrno>
#include <filesystem>
#include <fstream>
#include <system_error>

#include "common/fault.h"
#include "common/logging.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "data/trace_format.h"

#if defined(__unix__) || defined(__APPLE__)
#define SP_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

namespace sp::data
{

bool
TraceView::supported()
{
#ifdef SP_HAVE_MMAP
    return true;
#else
    return false;
#endif
}

std::shared_ptr<const TraceView>
TraceView::open(const std::string &path, bool use_mmap)
{
    // From here the buffer or mapping must be released on any
    // validation failure; shared_ptr + ~TraceView handles both paths.
    std::shared_ptr<TraceView> view(new TraceView());
    view->path_ = path;
#ifdef SP_HAVE_MMAP
    if (use_mmap) {
        const int fd = ::open(path.c_str(), O_RDONLY);
        failIf(fd < 0,
               errno == ENOENT ? ErrorCode::NotFound : ErrorCode::IoError,
               "cannot open '", path, "' for mapping");

        struct stat st = {};
        if (::fstat(fd, &st) != 0) {
            ::close(fd);
            failWith(ErrorCode::IoError, "cannot stat '", path, "'");
        }
        const uint64_t size = static_cast<uint64_t>(st.st_size);
        void *mapping = MAP_FAILED;
        try {
            SP_FAULT_POINT("trace_view.mmap");
            mapping = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
        } catch (...) {
            // An injected mmap fault must not leak the descriptor.
            ::close(fd);
            throw;
        }
        // The mapping outlives the descriptor.
        ::close(fd);
        failIf(mapping == MAP_FAILED, ErrorCode::IoError, "mmap of '",
               path, "' (", size, " bytes) failed");
        view->mapping_ = mapping;
        view->mapping_bytes_ = size;
        view->adoptFile(static_cast<const unsigned char *>(mapping), size);
        return view;
    }
#else
    (void)use_mmap;
#endif
    // file_size fails on anything but a regular file (a directory
    // included), so the buffer is only ever sized by a real file.
    std::error_code ec;
    const uint64_t size = std::filesystem::file_size(path, ec);
    failIf(static_cast<bool>(ec),
           ec == std::errc::no_such_file_or_directory ? ErrorCode::NotFound
                                                      : ErrorCode::IoError,
           "cannot read '", path, "': ", ec.message());
    std::ifstream is(path, std::ios::binary);
    // The file is a whole number of 8-byte words when valid; rounding
    // up keeps a ragged (corrupt) tail readable until validation.
    view->buffer_ =
        std::make_unique_for_overwrite<uint64_t[]>((size + 7) / 8);
    SP_FAULT_POINT("dataset.load.read");
    is.read(reinterpret_cast<char *>(view->buffer_.get()),
            static_cast<std::streamsize>(size));
    failIf(!is, ErrorCode::IoError, "cannot read '", path, "'");
    view->adoptFile(
        reinterpret_cast<const unsigned char *>(view->buffer_.get()),
        size);
    return view;
}

void
TraceView::adoptFile(const unsigned char *data, uint64_t size)
{
    const format::TraceFileHeader header =
        format::parseHeader(data, size, path_);
    format::validateHeader(header, size, path_);
    config_ = header.config;
    num_batches_ = header.num_batches;
    // validateHeader proved the batch count against the file size;
    // re-derive the size from the arithmetic record() uses, so the
    // validator and the accessor can never drift apart (every span
    // served below is inside the file iff this holds).
    SP_ASSERT(format::headerBytes(config_) + num_batches_ *
                      config_.recordWords() * sizeof(uint64_t) ==
                  size,
              "trace '", path_, "': accessor arithmetic disagrees with "
              "the validated file size ", size);
    // The header is a whole number of words (see trace_format.h), so
    // the records are 8-aligned and the cast is well-defined.
    records_ = reinterpret_cast<const uint64_t *>(
        data + format::headerBytes(config_));
}

std::shared_ptr<const TraceView>
TraceView::generate(const TraceConfig &config, uint64_t num_batches)
{
    fatalIf(num_batches == 0, "dataset needs at least one batch");
    const TraceGenerator generator(config);
    std::shared_ptr<TraceView> view(new TraceView());
    view->config_ = config;
    view->num_batches_ = num_batches;
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
    view->buffer_ = std::make_unique_for_overwrite<uint64_t[]>(words);
    view->records_ = view->buffer_.get();
    // Each batch is an independent seeded stream (deterministic per
    // index, see trace.h), so generation parallelises with
    // bit-identical results: task b only writes record b.
    uint64_t *records = view->buffer_.get();
    const size_t record_words = config.recordWords();
    common::parallelFor(num_batches, [&](size_t b) {
        generator.writeRecord(
            b, {records + b * record_words, record_words});
    });
    return view;
}

TraceView::~TraceView()
{
#ifdef SP_HAVE_MMAP
    if (mapping_ != nullptr)
        ::munmap(mapping_, mapping_bytes_);
#endif
}

std::span<const uint64_t>
TraceView::record(uint64_t b) const
{
    // splint:allow(io-status): caller-bug bounds check, not I/O
    panicIf(b >= num_batches_, "batch index ", b, " out of range (",
            num_batches_, " batches in '", path_, "')");
    const size_t words = config_.recordWords();
    return {records_ + b * words, words};
}

} // namespace sp::data
