#include "data/dataset.h"

#include <algorithm>
#include <cerrno>
#include <fstream>

#include "common/fault.h"
#include "common/logging.h"
#include "common/status.h"
#include "data/trace_format.h"

namespace sp::data
{

TraceDataset::TraceDataset(const TraceConfig &config, uint64_t num_batches)
    : TraceDataset(TraceView::generate(config, num_batches))
{
}

TraceDataset::TraceDataset(std::shared_ptr<const TraceView> view,
                           uint64_t max_batches)
    : generator_(view->config()), view_(std::move(view))
{
    const uint64_t num_batches =
        max_batches == 0
            ? view_->numBatches()
            : std::min<uint64_t>(max_batches, view_->numBatches());
    // No ID bytes move -- each batch is a span into the view, built in
    // O(1). A file's records are validated here, where TraceStore can
    // still classify a bad entry as a miss and regenerate it, not as a
    // panic in the middle of a simulation: every index word must match
    // its position, and every ID must lie in [0, rows_per_table),
    // since every system indexes by row. The ID scan faults a whole
    // mapping in at load; generated traces are in range by
    // construction and skip it.
    const bool from_file = !view_->path().empty();
    const uint64_t rows = config().rows_per_table;
    batches_.reserve(num_batches);
    for (uint64_t b = 0; b < num_batches; ++b) {
        batches_.push_back(MiniBatch::fromRecord(view_->record(b), config()));
        const MiniBatch &batch = batches_.back();
        failIf(batch.index != b, ErrorCode::Corrupt, "'", view_->path(),
               "' stores batch index ", batch.index, " at position ", b,
               "; the file is corrupt");
        if (!from_file)
            continue;
        const auto ids = batch.all_ids;
        const auto bad = std::ranges::find_if(
            ids, [rows](uint64_t id) { return id >= rows; });
        if (bad != ids.end())
            failWith(ErrorCode::Corrupt, "'", view_->path(),
                     "' stores row ID ", *bad, " in batch ", b,
                     ", table ", (bad - ids.begin()) / batch.idsPerTable(),
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
    return generator_.makeLabels(index);
}

namespace
{

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

sp::Status
TraceDataset::saveTo(const std::string &path) const
{
    errno = 0;
    std::ofstream os(path, std::ios::binary);
    if (!os)
        return writeFailure(path, "opening");

    try {
        format::writeHeader(os, config(), numBatches());
        for (uint64_t b = 0; b < numBatches(); ++b) {
            SP_FAULT_POINT("dataset.save.write");
            const auto record = view_->record(b);
            os.write(reinterpret_cast<const char *>(record.data()),
                     static_cast<std::streamsize>(record.size_bytes()));
        }
    } catch (const StatusError &e) {
        return e.status();
    }
    // Durability: a full disk or short write may only surface at
    // flush/close time; check both so a truncated file is reported
    // here rather than as a corruption error at some later load().
    os.flush();
    if (!os)
        return writeFailure(path, "writing");
    os.close();
    if (os.fail())
        return writeFailure(path, "closing");
    return sp::Status();
}

TraceDataset
TraceDataset::load(const std::string &path, uint64_t max_batches)
{
    return TraceDataset(TraceView::open(path, false), max_batches);
}

TraceDataset
TraceDataset::mapped(const std::string &path, uint64_t max_batches)
{
    return TraceDataset(TraceView::open(path), max_batches);
}

TraceDataset
TraceDataset::replay(const std::string &path, uint64_t max_batches)
{
    // Replay adapter: the file's embedded config drives the run, so a
    // recorded trace flows through every system and harness exactly
    // like a generated one.
    SP_FAULT_POINT("dataset.replay.open");
    return mapped(path, max_batches);
}

} // namespace sp::data
