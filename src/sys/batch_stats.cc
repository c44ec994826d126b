#include "sys/batch_stats.h"

#include "common/logging.h"
#include "common/thread_pool.h"
#include "emb/embedding_ops.h"

namespace sp::sys
{

BatchStats::BatchStats(const data::TraceDataset &dataset,
                       uint64_t iterations)
{
    fatalIf(iterations > dataset.numBatches(),
            "dataset has ", dataset.numBatches(), " batches, need ",
            iterations);
    // Batches are independent, so the unique counts compute in
    // parallel; each worker reuses one bitmap over the table's rows
    // across its share of the batches (countUnique leaves it zeroed).
    const uint64_t rows = dataset.config().rows_per_table;
    unique_.resize(iterations);
    common::parallelFor(iterations, [this, &dataset, rows](size_t b) {
        static thread_local std::vector<uint64_t> seen;
        const auto &batch = dataset.batch(b);
        unique_[b].reserve(batch.numTables());
        for (size_t t = 0; t < batch.numTables(); ++t)
            unique_[b].push_back(
                emb::countUnique(batch.ids(t), rows, seen));
    });
}

size_t
BatchStats::unique(uint64_t b, size_t t) const
{
    panicIf(b >= unique_.size(), "batch index out of range");
    panicIf(t >= unique_[b].size(), "table index out of range");
    return unique_[b][t];
}

} // namespace sp::sys
