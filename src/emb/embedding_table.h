/**
 * @file
 * Embedding table storage.
 *
 * An embedding table maps a categorical feature's discrete ID to a
 * dense float vector (one row per ID). The paper's tables are
 * 10M rows x 128 dims x 8 tables = 40 GB -- too large to materialise
 * here, and unnecessary for timing: every latency in the model depends
 * only on row *geometry* and ID streams, so only the functional
 * training runs and the correctness tests build tables, at small
 * scale.
 */

#ifndef SP_EMB_EMBEDDING_TABLE_H
#define SP_EMB_EMBEDDING_TABLE_H

#include <cstdint>
#include <cstddef>
#include <vector>

#include "tensor/rng.h"

namespace sp::emb
{

/** Interface for anything that can hand out mutable embedding rows. */
class RowAccessor
{
  public:
    virtual ~RowAccessor() = default;

    /** Mutable pointer to the dim() floats of row `id`. */
    virtual float *row(uint64_t id) = 0;

    /** Read-only pointer to the dim() floats of row `id`. */
    virtual const float *row(uint64_t id) const = 0;

    /** Embedding vector dimension. */
    virtual size_t dim() const = 0;
};

/** One materialised embedding table. */
class EmbeddingTable : public RowAccessor
{
  public:
    EmbeddingTable(uint64_t rows, size_t dim);

    uint64_t rows() const { return rows_; }
    size_t dim() const override { return dim_; }
    size_t rowBytes() const { return dim_ * sizeof(float); }

    /** Initialise the storage with N(0, stddev) values. */
    void initRandom(tensor::Rng &rng, float stddev);

    float *row(uint64_t id) override;
    const float *row(uint64_t id) const override;

    /** Deep equality of two tables (bit-identical floats). */
    static bool identical(const EmbeddingTable &a, const EmbeddingTable &b);

  private:
    uint64_t rows_;
    size_t dim_;
    std::vector<float> data_;
};

} // namespace sp::emb

#endif // SP_EMB_EMBEDDING_TABLE_H
