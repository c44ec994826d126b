/**
 * @file
 * The records of one trace, in the on-disk layout.
 *
 * A TraceView owns a trace's batch records laid out exactly as in a v3
 * trace file (see trace_format.h) and serves each one as a span. The
 * records come from one of three sources:
 *
 *  - an mmap of the file (read-only): warm-starting a paper-scale
 *    sweep costs one mmap plus header validation instead of
 *    regenerating (or even rereading) gigabytes of IDs;
 *  - a heap buffer filled by one read of the file, where mmap is not
 *    wanted or the platform has none;
 *  - a heap buffer the generator fills on the pool, batch b into
 *    record b.
 *
 * A file's header is fully validated when it is opened, including an
 * exact file-size check, so a span handed out later can never run off
 * the buffer.
 */

#ifndef SP_DATA_TRACE_VIEW_H
#define SP_DATA_TRACE_VIEW_H

#include <cstdint>
#include <memory>
#include <span>
#include <string>

#include "data/trace.h"

namespace sp::data
{

/** Immutable batch records of one trace. */
class TraceView
{
  public:
    /** True when this platform has an mmap path at all. */
    static bool supported();

    /**
     * Open `path` and validate its header: mapped when `use_mmap` and
     * the platform supports it, read into memory otherwise. Throws
     * StatusError classifying the failure: NotFound (missing file),
     * Corrupt / Truncated / VersionMismatch (validation), IoError
     * (stat/mmap/read).
     */
    static std::shared_ptr<const TraceView> open(const std::string &path,
                                                 bool use_mmap = true);

    /** Generate batches [0, num_batches) of `config` on the pool. */
    static std::shared_ptr<const TraceView>
    generate(const TraceConfig &config, uint64_t num_batches);

    ~TraceView();
    TraceView(const TraceView &) = delete;
    TraceView &operator=(const TraceView &) = delete;

    /** The file the records came from (empty when generated). */
    const std::string &path() const { return path_; }
    const TraceConfig &config() const { return config_; }
    uint64_t numBatches() const { return num_batches_; }
    /** True when the records are a file mapping. */
    bool mapped() const { return mapping_ != nullptr; }

    /** Batch `b`'s record: its index word, then every table's IDs. */
    std::span<const uint64_t> record(uint64_t b) const;

  private:
    TraceView() = default;

    /** Validate the file bytes [data, data + size) and serve the
     *  records that follow the header. */
    void adoptFile(const unsigned char *data, uint64_t size);

    std::string path_;
    TraceConfig config_;
    uint64_t num_batches_ = 0;
    const uint64_t *records_ = nullptr;
    // One of the two owns the bytes records_ points into.
    std::unique_ptr<uint64_t[]> buffer_;
    void *mapping_ = nullptr;
    uint64_t mapping_bytes_ = 0;
};

} // namespace sp::data

#endif // SP_DATA_TRACE_VIEW_H
