/**
 * @file
 * Shared per-batch trace statistics.
 *
 * Several system models need the number of *unique* IDs per batch per
 * table (it sizes the coalesced-gradient scatter). Computing it once
 * per dataset and sharing across systems keeps sweeps fast and
 * guarantees every system charges identical traffic for identical
 * work.
 */

#ifndef SP_SYS_BATCH_STATS_H
#define SP_SYS_BATCH_STATS_H

#include <cstdint>
#include <cstddef>
#include <vector>

#include "data/dataset.h"

namespace sp::sys
{

/** Unique-ID counts for a prefix of a dataset. */
class BatchStats
{
  public:
    /** Analyse batches [0, iterations) of `dataset`. */
    BatchStats(const data::TraceDataset &dataset, uint64_t iterations);

    /** Unique IDs of batch `b`, table `t`. */
    size_t unique(uint64_t b, size_t t) const;

    uint64_t iterations() const { return unique_.size(); }

  private:
    std::vector<std::vector<size_t>> unique_; // [batch][table]
};

} // namespace sp::sys

#endif // SP_SYS_BATCH_STATS_H
