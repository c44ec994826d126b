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
 * Datasets can be saved to and loaded from a compact binary format so
 * experiments can be re-run on the exact same trace (trace_format.h).
 * Whatever the source -- the generator, one read of a file (load()) or
 * a file mapping (mapped()) -- the batches are spans into one TraceView
 * holding the file's record layout, shared by every copy of the
 * dataset.
 */

#ifndef SP_DATA_DATASET_H
#define SP_DATA_DATASET_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "data/trace.h"
#include "data/trace_view.h"

namespace sp::data
{

/** A fixed-length, fully materialised trace of mini-batches. */
class TraceDataset
{
  public:
    /** Generate `num_batches` mini-batches from `config`. */
    TraceDataset(const TraceConfig &config, uint64_t num_batches);

    /**
     * Serve the batches of `view`. With `max_batches` != 0 only the
     * first min(max_batches, view batches) batches are exposed (a
     * longer cached trace serves any prefix).
     */
    explicit TraceDataset(std::shared_ptr<const TraceView> view,
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

    /**
     * Load a dataset previously written by saveTo() with one read of
     * the file. With `max_batches` != 0, serve only that prefix.
     * Throws StatusError classifying the failure (NotFound/Truncated/
     * Corrupt/VersionMismatch/IoError).
     */
    static TraceDataset load(const std::string &path,
                             uint64_t max_batches = 0);

    /**
     * load(), but serving batches straight from a file mapping where
     * the platform supports mmap (see TraceView).
     */
    static TraceDataset mapped(const std::string &path,
                               uint64_t max_batches = 0);

    /**
     * Replay adapter: ingest an externally recorded trace file whose
     * embedded config drives the run. Throws StatusError classifying
     * the failure exactly like mapped().
     */
    static TraceDataset replay(const std::string &path,
                               uint64_t max_batches = 0);

    /** True when batches are served from a file mapping. */
    bool isMapped() const { return view_->mapped(); }

  private:
    TraceGenerator generator_;
    // Owns the records every batch points into; shared so copies of
    // the dataset share one buffer.
    std::shared_ptr<const TraceView> view_;
    std::vector<MiniBatch> batches_;
};

} // namespace sp::data

#endif // SP_DATA_DATASET_H
