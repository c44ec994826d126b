/**
 * @file
 * Synthetic training-trace generation.
 *
 * A trace is the stream of sparse-feature IDs that the training dataset
 * records for every mini-batch -- the paper's central observation is
 * that this stream is known ahead of time, so a runtime can look
 * *forward* through it. TraceGenerator materialises mini-batches of
 * per-table embedding-row IDs drawn from the locality presets, plus the
 * dense features and labels needed for functional (real-float) training
 * runs.
 *
 * Generation is deterministic per (seed, table, batch index): batch k
 * has identical contents no matter in which order batches are produced,
 * which the look-ahead machinery in dataset.h relies on.
 */

#ifndef SP_DATA_TRACE_H
#define SP_DATA_TRACE_H

#include <cstdint>
#include <cstddef>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "data/locality.h"
#include "data/workload.h"
#include "tensor/matrix.h"

namespace sp::data
{

/** Geometry and distribution of a synthetic trace. */
struct TraceConfig
{
    /** Number of embedding tables (paper default: 8). */
    size_t num_tables = 8;
    /** Rows per embedding table (paper default: 10M). */
    uint64_t rows_per_table = 10'000'000;
    /** Embedding gathers per table per sample (paper default: 20). */
    size_t lookups_per_table = 20;
    /** Mini-batch size (paper default: 2048). */
    size_t batch_size = 2048;
    /** Locality preset applied to every table... */
    Locality locality = Locality::Medium;
    /** ...unless overridden per table (size must equal num_tables). */
    std::vector<double> per_table_exponents;
    /** Master seed; all streams derive from it. */
    uint64_t seed = 42;
    /** Number of dense (continuous) features per sample. */
    size_t dense_features = 13;
    /** Workload shaping (drift/churn/burst/phase); default stationary. */
    WorkloadConfig workload;

    /** Sparse IDs per table per mini-batch (B * L). */
    size_t idsPerTable() const { return batch_size * lookups_per_table; }
    /** Sparse IDs per mini-batch across all tables. */
    size_t idsPerBatch() const { return idsPerTable() * num_tables; }
    /** Words in one batch record (trace_format.h): the index word,
     *  then every table's IDs. */
    size_t recordWords() const { return 1 + idsPerBatch(); }

    /** Field-by-field equality (the cache's poison guard). */
    bool operator==(const TraceConfig &other) const = default;

    /**
     * Stable content hash over every generator-relevant field plus the
     * on-disk format version: two configs produce the same fingerprint
     * iff they generate byte-identical traces readable by this build.
     * The content-addressed trace cache (trace_store.h) keys on it.
     * Returned as 16 lowercase hex characters.
     */
    std::string fingerprint() const;
};

/**
 * One mini-batch of sparse IDs: the unit the pipeline operates on.
 *
 * A batch is a view of its record in the trace layout (trace_format.h):
 * one span over every table's IDs, table after table, inside the
 * records its TraceDataset owns -- a file mapping or the generator's
 * buffer. Nothing is copied; ids(t) is arithmetic on the span.
 */
struct MiniBatch
{
    /** Global batch index within the trace. */
    uint64_t index = 0;
    size_t batch_size = 0;
    size_t lookups_per_table = 0;
    /**
     * batch_size * lookups_per_table row IDs per table, tables back to
     * back; the IDs for sample i of a table are the contiguous slice
     * [i*L, (i+1)*L) of its run.
     */
    std::span<const uint64_t> all_ids;

    /** The batch stored in `record` (index word, then the IDs) under
     *  `config`'s geometry. */
    static MiniBatch fromRecord(std::span<const uint64_t> record,
                                const TraceConfig &config);

    size_t idsPerTable() const { return batch_size * lookups_per_table; }

    size_t numTables() const { return all_ids.size() / idsPerTable(); }

    /** Table t's row IDs. */
    std::span<const uint64_t> ids(size_t t) const
    {
        return all_ids.subspan(t * idsPerTable(), idsPerTable());
    }

    /** Index, geometry and ID equality (tests, validation). */
    bool idsEqual(const MiniBatch &other) const;
};

/** Deterministic generator of mini-batches, dense features and labels. */
class TraceGenerator
{
  public:
    explicit TraceGenerator(const TraceConfig &config);

    const TraceConfig &config() const { return config_; }

    /**
     * Write batch `index`'s record (deterministic per index): the
     * index word, then every table's IDs. `record` holds
     * config().recordWords() words.
     */
    void writeRecord(uint64_t index, std::span<uint64_t> record) const;

    /** writeRecord() into a fresh buffer. */
    std::vector<uint64_t> makeRecord(uint64_t index) const;

    /**
     * Dense features for batch `index`: batch_size x dense_features,
     * N(0,1) entries, deterministic per index.
     */
    tensor::Matrix makeDenseFeatures(uint64_t index) const;

    /**
     * Click labels for `batch`, which has config()'s geometry:
     * batch_size x 1 in {0,1}. Labels are drawn from a hidden model
     * over the IDs the batch holds (generated or read from a file) and
     * the dense features of its index, so the task is learnable
     * through the embedding tables.
     */
    tensor::Matrix makeLabels(const MiniBatch &batch) const;

    /** Zipf exponent in effect for table t. */
    double tableExponent(size_t table) const;

  private:
    uint64_t streamSeed(uint64_t stream_kind, uint64_t table,
                        uint64_t index) const;

    TraceConfig config_;
};

} // namespace sp::data

#endif // SP_DATA_TRACE_H
