/**
 * @file
 * Embedding-layer compute primitives (paper Fig. 2).
 *
 * Forward: gather rows by sparse ID, then reduce (sum) each sample's
 * group of lookups to one vector per table.
 *
 * Backward: each sample's output gradient is duplicated to all of its
 * lookups, duplicates targeting the same row are coalesced (summed),
 * and the coalesced gradients are scattered into the table as SGD
 * updates.
 *
 * Every kernel here has a fixed, documented accumulation order
 * (trace order within a sample; trace order within an ID group), so
 * two systems running the same trace produce bit-identical floats --
 * the foundation of the algorithmic-equivalence property tests.
 */

#ifndef SP_EMB_EMBEDDING_OPS_H
#define SP_EMB_EMBEDDING_OPS_H

#include <cstdint>
#include <cstddef>
#include <span>
#include <vector>

#include "emb/embedding_table.h"
#include "tensor/matrix.h"

namespace sp::emb
{

/**
 * Gather `ids.size()` rows into `out` (ids.size() x dim).
 * Row i of out is a copy of table row ids[i].
 */
void gather(const RowAccessor &table, std::span<const uint64_t> ids,
            tensor::Matrix &out);

/**
 * Reduce groups of `lookups` consecutive gathered rows by summation:
 * out(i) = sum of gathered rows [i*lookups, (i+1)*lookups). The sum is
 * taken in trace order (left to right).
 */
void reduceSum(const tensor::Matrix &gathered, size_t lookups,
               tensor::Matrix &out);

/** Fused gather + per-sample sum (out is batch x dim). */
void gatherReduce(const RowAccessor &table, std::span<const uint64_t> ids,
                  size_t lookups, tensor::Matrix &out);

/** Result of gradient duplication + coalescing for one table. */
struct CoalescedGradients
{
    /** Unique row IDs in ascending order. */
    std::vector<uint64_t> ids;
    /** ids.size() x dim summed gradients, matching `ids` order. */
    tensor::Matrix grads;
};

/**
 * Duplicate per-sample output gradients to every lookup and coalesce
 * duplicates (paper Fig. 2(b)).
 *
 * @param ids          batch*lookups sparse IDs in trace order.
 * @param output_grads batch x dim gradients of the reduced outputs.
 * @param lookups      lookups per sample.
 *
 * Accumulation order inside an ID group follows trace order, so the
 * result is deterministic. With sum-reduction the duplicated gradient
 * of every lookup of sample i is exactly output_grads row i.
 */
CoalescedGradients duplicateAndCoalesce(std::span<const uint64_t> ids,
                                        const tensor::Matrix &output_grads,
                                        size_t lookups);

/**
 * SGD scatter-update: row[id] -= lr * grad for every coalesced entry.
 * Each row is touched exactly once per call.
 */
void sgdScatter(RowAccessor &table, const CoalescedGradients &coalesced,
                float lr);

/**
 * Sparse AdaGrad scatter-update (the DLRM embedding default):
 *   state[id][d] += grad[d]^2
 *   row[id][d]   -= lr * grad[d] / (sqrt(state[id][d]) + eps)
 * `state` holds one accumulator per embedding element and must share
 * the table's geometry. Deterministic element order, so pipelined and
 * sequential execution stay bit-identical.
 */
void adagradScatter(RowAccessor &table, RowAccessor &state,
                    const CoalescedGradients &coalesced, float lr,
                    float eps);

/**
 * Number of distinct IDs in `ids` (timing models), counted in one
 * pass that sets each ID's bit in `seen`, a caller-owned bitmap over
 * the row range [0, rows).
 *
 * `seen` is grown to ceil(rows / 64) words when it is shorter. Its
 * words are zero on entry and zero on return: a second pass over
 * `ids` clears only the words the first pass set, so one bitmap
 * serves every call of a statistics loop at O(ids) per call. An ID
 * >= rows is a caller bug and panics, with `seen` cleared.
 */
size_t countUnique(std::span<const uint64_t> ids, uint64_t rows,
                   std::vector<uint64_t> &seen);

/** Distinct IDs of `ids`, ascending (the functional trainer's hazard
 *  audit). */
std::vector<uint64_t> uniqueIds(std::span<const uint64_t> ids);

} // namespace sp::emb

#endif // SP_EMB_EMBEDDING_OPS_H
