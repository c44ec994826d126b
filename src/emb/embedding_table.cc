#include "emb/embedding_table.h"

#include <algorithm>

#include "common/logging.h"

namespace sp::emb
{

EmbeddingTable::EmbeddingTable(uint64_t rows, size_t dim)
    : rows_(rows), dim_(dim)
{
    fatalIf(rows == 0, "embedding table needs at least one row");
    fatalIf(dim == 0, "embedding dimension must be positive");
    const uint64_t total = rows_ * static_cast<uint64_t>(dim_);
    fatalIf(total > (1ull << 32), "dense table of ", rows_, "x", dim_,
            " floats is too large to materialise");
    data_.assign(total, 0.0f);
}

void
EmbeddingTable::initRandom(tensor::Rng &rng, float stddev)
{
    for (auto &v : data_)
        v = static_cast<float>(rng.normal(0.0, stddev));
}

float *
EmbeddingTable::row(uint64_t id)
{
    panicIf(id >= rows_, "row ", id, " out of range (", rows_, " rows)");
    return data_.data() + id * dim_;
}

const float *
EmbeddingTable::row(uint64_t id) const
{
    panicIf(id >= rows_, "row ", id, " out of range (", rows_, " rows)");
    return data_.data() + id * dim_;
}

bool
EmbeddingTable::identical(const EmbeddingTable &a, const EmbeddingTable &b)
{
    if (a.rows_ != b.rows_ || a.dim_ != b.dim_)
        return false;
    return std::equal(a.data_.begin(), a.data_.end(), b.data_.begin());
}

} // namespace sp::emb
