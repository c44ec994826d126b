#include "emb/embedding_ops.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>

#include "common/logging.h"

namespace sp::emb
{

void
gather(const RowAccessor &table, std::span<const uint64_t> ids,
       tensor::Matrix &out)
{
    const size_t dim = table.dim();
    panicIf(out.rows() != ids.size() || out.cols() != dim,
            "gather output must be ", ids.size(), "x", dim);
    for (size_t i = 0; i < ids.size(); ++i)
        std::memcpy(out.row(i), table.row(ids[i]), dim * sizeof(float));
}

void
reduceSum(const tensor::Matrix &gathered, size_t lookups,
          tensor::Matrix &out)
{
    panicIf(lookups == 0, "reduceSum with zero lookups");
    panicIf(gathered.rows() % lookups != 0,
            "gathered rows (", gathered.rows(),
            ") not divisible by lookups (", lookups, ")");
    const size_t batch = gathered.rows() / lookups;
    const size_t dim = gathered.cols();
    panicIf(out.rows() != batch || out.cols() != dim,
            "reduceSum output must be ", batch, "x", dim);

    for (size_t i = 0; i < batch; ++i) {
        float *dst = out.row(i);
        std::memcpy(dst, gathered.row(i * lookups), dim * sizeof(float));
        for (size_t l = 1; l < lookups; ++l) {
            const float *src = gathered.row(i * lookups + l);
            for (size_t d = 0; d < dim; ++d)
                dst[d] += src[d];
        }
    }
}

void
gatherReduce(const RowAccessor &table, std::span<const uint64_t> ids,
             size_t lookups, tensor::Matrix &out)
{
    panicIf(lookups == 0, "gatherReduce with zero lookups");
    panicIf(ids.size() % lookups != 0,
            "ids (", ids.size(), ") not divisible by lookups (", lookups,
            ")");
    const size_t batch = ids.size() / lookups;
    const size_t dim = table.dim();
    panicIf(out.rows() != batch || out.cols() != dim,
            "gatherReduce output must be ", batch, "x", dim);

    for (size_t i = 0; i < batch; ++i) {
        float *dst = out.row(i);
        std::memcpy(dst, table.row(ids[i * lookups]), dim * sizeof(float));
        for (size_t l = 1; l < lookups; ++l) {
            const float *src = table.row(ids[i * lookups + l]);
            for (size_t d = 0; d < dim; ++d)
                dst[d] += src[d];
        }
    }
}

CoalescedGradients
duplicateAndCoalesce(std::span<const uint64_t> ids,
                     const tensor::Matrix &output_grads, size_t lookups)
{
    panicIf(lookups == 0, "duplicateAndCoalesce with zero lookups");
    panicIf(ids.size() != output_grads.rows() * lookups,
            "ids (", ids.size(), ") must equal batch (",
            output_grads.rows(), ") * lookups (", lookups, ")");
    const size_t dim = output_grads.cols();

    // Stable sort of lookup positions by ID keeps trace order inside
    // each ID group, fixing the accumulation order.
    std::vector<uint32_t> order(ids.size());
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(),
                     [&ids](uint32_t a, uint32_t b) {
                         return ids[a] < ids[b];
                     });

    CoalescedGradients result;
    result.ids.reserve(ids.size());

    // First pass: count unique IDs to size the gradient matrix.
    size_t unique = 0;
    for (size_t i = 0; i < order.size(); ++i) {
        if (i == 0 || ids[order[i]] != ids[order[i - 1]])
            ++unique;
    }
    result.grads.resize(unique, dim);

    size_t out_row = 0;
    for (size_t i = 0; i < order.size(); ++i) {
        const uint64_t id = ids[order[i]];
        const size_t sample = order[i] / lookups;
        const float *src = output_grads.row(sample);
        if (i == 0 || id != ids[order[i - 1]]) {
            result.ids.push_back(id);
            std::memcpy(result.grads.row(out_row), src,
                        dim * sizeof(float));
            ++out_row;
        } else {
            float *dst = result.grads.row(out_row - 1);
            for (size_t d = 0; d < dim; ++d)
                dst[d] += src[d];
        }
    }
    panicIf(out_row != unique, "coalesce row count mismatch");
    return result;
}

void
sgdScatter(RowAccessor &table, const CoalescedGradients &coalesced,
           float lr)
{
    const size_t dim = table.dim();
    panicIf(coalesced.grads.rows() != coalesced.ids.size() ||
                coalesced.grads.cols() != dim,
            "coalesced gradient shape mismatch");
    for (size_t i = 0; i < coalesced.ids.size(); ++i) {
        float *dst = table.row(coalesced.ids[i]);
        const float *grad = coalesced.grads.row(i);
        for (size_t d = 0; d < dim; ++d)
            dst[d] -= lr * grad[d];
    }
}

void
adagradScatter(RowAccessor &table, RowAccessor &state,
               const CoalescedGradients &coalesced, float lr, float eps)
{
    const size_t dim = table.dim();
    panicIf(state.dim() != dim,
            "optimizer state dimension mismatches the table");
    panicIf(coalesced.grads.rows() != coalesced.ids.size() ||
                coalesced.grads.cols() != dim,
            "coalesced gradient shape mismatch");
    for (size_t i = 0; i < coalesced.ids.size(); ++i) {
        float *dst = table.row(coalesced.ids[i]);
        float *acc = state.row(coalesced.ids[i]);
        const float *grad = coalesced.grads.row(i);
        for (size_t d = 0; d < dim; ++d) {
            acc[d] += grad[d] * grad[d];
            dst[d] -= lr * grad[d] / (std::sqrt(acc[d]) + eps);
        }
    }
}

size_t
countUnique(std::span<const uint64_t> ids, uint64_t rows,
            std::vector<uint64_t> &seen)
{
    // Growing appends zero words, so the all-zero invariant holds.
    const uint64_t words = rows / 64 + (rows % 64 != 0);
    if (seen.size() < words)
        seen.resize(words);
    // Zero the words the first n IDs set: one store per ID instead of
    // a sweep over the whole row range.
    const auto clear = [ids, &seen](size_t n) {
        for (size_t i = 0; i < n; ++i)
            seen[ids[i] / 64] = 0;
    };

    size_t count = 0;
    for (size_t i = 0; i < ids.size(); ++i) {
        const uint64_t id = ids[i];
        if (id >= rows) {
            clear(i);
            panic("countUnique: ID ", id, " is not below the ", rows,
                  " rows counted");
        }
        uint64_t &word = seen[id / 64];
        const uint64_t bit = uint64_t{1} << (id % 64);
        count += (word & bit) == 0;
        word |= bit;
    }
    clear(ids.size());
    return count;
}

std::vector<uint64_t>
uniqueIds(std::span<const uint64_t> ids)
{
    std::vector<uint64_t> sorted(ids.begin(), ids.end());
    std::sort(sorted.begin(), sorted.end());
    sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
    return sorted;
}

} // namespace sp::emb
