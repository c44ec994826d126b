/**
 * @file
 * Functional (real-float) training engines.
 *
 * Timing answers "how fast"; these engines answer "is it still the
 * same algorithm". Each trainer runs genuine DLRM SGD over dense
 * embedding tables at small scale:
 *
 *  - FunctionalHybridTrainer:      the sequential reference (Fig 4a);
 *  - FunctionalStaticCacheTrainer: hits train in cache, misses in the
 *                                  CPU table (Fig 4b);
 *  - FunctionalScratchPipeTrainer: the full six-stage pipeline with
 *                                  staging buffers, per-cycle hazard
 *                                  auditing, and the always-hit
 *                                  scratchpad (Fig 10/11);
 *
 * The caching trainers own every float they move, and move a row's
 * data one way. The static-cache trainer keeps its cached rows' copies
 * in an emb::EmbeddingTable with one row per slot, found through a
 * cache::RowIndex, and reads every other row from the table. The
 * ScratchPipe trainer's controllers only plan; the trainer treats a
 * row as slot-aligned planes -- the embedding values, plus the AdaGrad
 * accumulators when the optimizer keeps them -- each a CPU table plus
 * a scratchpad table with one row per slot (storage_ and
 * state_storage_). [Collect], [Insert] and the end-of-run drain run
 * one loop over the planes, so optimizer state travels exactly as the
 * values do.
 *
 * All three use the *same* kernels in the same accumulation order, so
 * the algorithmic-equivalence property holds bit-for-bit: after N
 * iterations the embedding tables and MLP weights of every trainer are
 * identical (tests/sys/functional_equivalence_test.cc).
 */

#ifndef SP_SYS_FUNCTIONAL_H
#define SP_SYS_FUNCTIONAL_H

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/controller.h"
#include "core/hazard_audit.h"
#include "data/dataset.h"
#include "emb/embedding_table.h"
#include "nn/dlrm.h"
#include "sys/scratchpipe_sys.h"
#include "sys/system_config.h"

namespace sp::sys
{

/** Outcome of a functional training run. */
struct FunctionalRunResult
{
    /** Per-iteration BCE losses in training order. */
    std::vector<double> losses;
    /** Per-iteration training accuracies. */
    std::vector<double> accuracies;

    /** Mean loss over the final quarter of training. */
    double finalLoss() const;
    /** Mean accuracy over the final quarter of training. */
    double finalAccuracy() const;
    /** Mean loss over the first quarter (learning-progress checks). */
    double initialLoss() const;
};

/** Dense tables initialised deterministically from the config seed. */
std::vector<emb::EmbeddingTable>
makeDenseTables(const ModelConfig &config);

/**
 * One full DLRM training step through arbitrary row accessors:
 * gather-reduce per table, DNN forward/backward, gradient
 * duplicate/coalesce/scatter per table, SGD step. Returns loss and
 * writes accuracy through `accuracy`.
 */
double functionalTrainStep(nn::DlrmModel &model,
                           std::vector<emb::RowAccessor *> &accessors,
                           const data::MiniBatch &batch,
                           const tensor::Matrix &dense,
                           const tensor::Matrix &labels, float lr,
                           double *accuracy = nullptr,
                           std::vector<emb::RowAccessor *>
                               *state_accessors = nullptr,
                           float adagrad_eps = 1e-8f);

/** Sequential hybrid CPU-GPU reference trainer. */
class FunctionalHybridTrainer
{
  public:
    explicit FunctionalHybridTrainer(const ModelConfig &config);

    /** Train over batches [0, iterations). */
    FunctionalRunResult train(const data::TraceDataset &dataset,
                              uint64_t iterations);

    const std::vector<emb::EmbeddingTable> &tables() const
    {
        return tables_;
    }
    const nn::DlrmModel &model() const { return model_; }
    /** Per-row AdaGrad accumulators (empty under SGD). */
    const std::vector<emb::EmbeddingTable> &stateTables() const
    {
        return state_tables_;
    }

  private:
    ModelConfig config_;
    std::vector<emb::EmbeddingTable> tables_;
    std::vector<emb::EmbeddingTable> state_tables_;
    nn::DlrmModel model_;
};

/** Static top-N cache trainer (profile-ranked cache contents). */
class FunctionalStaticCacheTrainer
{
  public:
    /** `cache_fraction` of each table's rows, checked by
     *  cachedRows(). */
    FunctionalStaticCacheTrainer(const ModelConfig &config,
                                 double cache_fraction);

    /**
     * Profiles the first `iterations` batches to build the top-N
     * ranking, copies those rows into the cache, trains, then copies
     * them back to the tables.
     */
    FunctionalRunResult train(const data::TraceDataset &dataset,
                              uint64_t iterations);

    const std::vector<emb::EmbeddingTable> &tables() const
    {
        return tables_;
    }
    const nn::DlrmModel &model() const { return model_; }

  private:
    ModelConfig config_;
    uint64_t cached_rows_ = 0;
    std::vector<emb::EmbeddingTable> tables_;
    nn::DlrmModel model_;
};

/** The six-stage pipelined ScratchPipe trainer. */
class FunctionalScratchPipeTrainer
{
  public:
    /**
     * `options` configure the scratchpad as for ScratchPipeSystem.
     * warm_start is forced off (Storage would hold no values for
     * pre-resident rows), gpus must be 1, and the per-cycle hazard
     * auditor runs whenever the trainer is pipelined.
     */
    FunctionalScratchPipeTrainer(const ModelConfig &config,
                                 const ScratchPipeOptions &options);

    /**
     * Train and then flush all resident rows back into the CPU
     * tables, leaving tables() directly comparable with the other
     * trainers'.
     */
    FunctionalRunResult train(const data::TraceDataset &dataset,
                              uint64_t iterations);

    const std::vector<emb::EmbeddingTable> &tables() const
    {
        return tables_;
    }
    const nn::DlrmModel &model() const { return model_; }
    const core::HazardAuditor &auditor() const { return auditor_; }
    /** Per-row AdaGrad accumulators (empty under SGD). */
    const std::vector<emb::EmbeddingTable> &stateTables() const
    {
        return state_tables_;
    }

    /** ID-level scratchpad hit rate observed at [Plan]. */
    double hitRate() const;

    /** Aggregate controller statistics across tables. */
    core::ControllerStats aggregateStats() const;

  private:
    /** One slot-aligned plane of a table's rows: every row's CPU copy,
     *  and the scratchpad copy of each resident row at its slot. */
    struct RowPlane
    {
        emb::EmbeddingTable *table;
        emb::EmbeddingTable *slots;
    };
    /** Per-table staged data of one in-flight mini-batch. */
    struct StagedTable
    {
        core::PlanResult plan;
        /** Per plane: the missed rows read from the CPU table, and the
         *  victims' rows read out of the scratchpad. */
        std::vector<tensor::Matrix> fills;
        std::vector<tensor::Matrix> evictions;
    };

    /** Table `t`'s row planes: the values, then the AdaGrad
     *  accumulators when the optimizer keeps them. */
    std::vector<RowPlane> rowPlanes(size_t t);

    void planBatch(const data::TraceDataset &dataset, uint64_t index);
    void collectBatch(uint64_t index);
    void insertBatch(uint64_t index);
    void trainBatch(const data::TraceDataset &dataset, uint64_t index,
                    FunctionalRunResult &result);

    ModelConfig config_;
    ScratchPipeOptions options_;
    std::vector<emb::EmbeddingTable> tables_;
    std::vector<emb::EmbeddingTable> state_tables_;
    nn::DlrmModel model_;
    std::vector<core::ScratchPipeController> controllers_;
    // The scratchpad halves of the planes, one table per controller
    // with a row per slot: the values' Storage, and the AdaGrad
    // accumulators (empty under SGD).
    std::vector<emb::EmbeddingTable> storage_;
    std::vector<emb::EmbeddingTable> state_storage_;
    core::HazardAuditor auditor_;
    bool auditing_ = false;
    // Staged data of each in-flight batch, per table, by batch index.
    std::unordered_map<uint64_t, std::vector<StagedTable>> inflight_;
};

} // namespace sp::sys

#endif // SP_SYS_FUNCTIONAL_H
