/**
 * @file
 * Materialised training dataset with look-ahead.
 *
 * TraceDataset serves a window of pre-recorded mini-batches and exposes
 * the capability the paper builds on: any consumer may inspect not only
 * the current mini-batch's sparse IDs but those of *future* batches
 * (the dataset is recorded ahead of time). The ScratchPipe [Plan] stage
 * uses lookAhead() to build its future window; the baseline systems
 * simply iterate.
 *
 * Datasets can be saved to a compact binary format and opened again so
 * experiments can be re-run on the exact same trace (trace_format.h).
 * The records come from the generator's buffer or from a read-only
 * mapping of a saved file (open()); either way they are in the file's
 * record layout, every batch is a span into them, and every copy of
 * the dataset shares them.
 */

#ifndef SP_DATA_DATASET_H
#define SP_DATA_DATASET_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "data/trace.h"

namespace sp::data
{

/** A fixed-length, fully materialised trace of mini-batches. */
class TraceDataset
{
  public:
    /** Generate `num_batches` mini-batches from `config` on the pool. */
    TraceDataset(const TraceConfig &config, uint64_t num_batches);

    /**
     * Map a file written by saveTo() read-only and serve its batches
     * in place. The header is fully validated, including an exact
     * file-size check, and so is every batch served: its index word
     * must match its position and its IDs must lie below
     * rows_per_table. With `max_batches` != 0 only the first
     * min(max_batches, file batches) batches are served (a longer
     * cached trace serves any prefix). Throws StatusError classifying
     * the failure: NotFound (no such file), IoError (not a regular
     * file, or stat/mmap failed), Truncated (shorter than its header
     * describes), VersionMismatch or Corrupt.
     */
    static TraceDataset open(const std::string &path,
                             uint64_t max_batches = 0);

    const TraceConfig &config() const { return generator_.config(); }
    uint64_t numBatches() const { return batches_.size(); }

    /** The mini-batch at position `index` (0-based). */
    const MiniBatch &batch(uint64_t index) const;

    /**
     * Look-ahead access: the mini-batch `distance` iterations after
     * `index`, or nullptr when that runs past the end of the trace.
     * distance 0 is the batch itself.
     */
    const MiniBatch *lookAhead(uint64_t index, uint64_t distance) const;

    /** Dense features for batch `index` (functional runs). */
    tensor::Matrix denseFeatures(uint64_t index) const;

    /** Labels for batch `index` (functional runs). */
    tensor::Matrix labels(uint64_t index) const;

    /**
     * Serialise to a binary file: the header, then each record as
     * stored. Environmental failures -- including short writes only
     * detected at the final flush/close, which must never publish a
     * silently truncated file -- come back as a classified Status
     * (NoSpace when the disk filled, IoError otherwise). Never throws
     * for I/O trouble.
     */
    sp::Status saveTo(const std::string &path) const;

  private:
    /** An empty dataset over `config`'s generator (open()). */
    explicit TraceDataset(const TraceConfig &config);

    /** Own `records` and serve `num_batches` records from `first`.
     *  `path` names the file they were mapped from (empty when
     *  generated); only a file's IDs are range-checked. */
    void adopt(std::shared_ptr<const void> records, const uint64_t *first,
               uint64_t num_batches, const std::string &path);

    TraceGenerator generator_;
    // Owns the records every batch points into: the generator's buffer
    // or a file mapping, unmapped with the last copy of the dataset.
    std::shared_ptr<const void> records_;
    std::vector<MiniBatch> batches_;
};

} // namespace sp::data

#endif // SP_DATA_DATASET_H
