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

#include "cache/replacement.h"
#include "cache/static_cache.h"
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
     * ranking, trains, then flushes cache contents back to the tables.
     */
    FunctionalRunResult train(const data::TraceDataset &dataset,
                              uint64_t iterations);

    const std::vector<emb::EmbeddingTable> &tables() const
    {
        return tables_;
    }
    const nn::DlrmModel &model() const { return model_; }

    /** ID-level hit rate observed while training. */
    double hitRate() const;

  private:
    ModelConfig config_;
    uint64_t cached_rows_ = 0;
    std::vector<emb::EmbeddingTable> tables_;
    nn::DlrmModel model_;
    uint64_t hits_ = 0;
    uint64_t lookups_ = 0;
};

/** The six-stage pipelined ScratchPipe trainer. */
class FunctionalScratchPipeTrainer
{
  public:
    /**
     * `options` configure the scratchpad as for ScratchPipeSystem.
     * warm_start is forced off (dense Storage would hold no values for
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
    /** Per-table staged data of one in-flight mini-batch. */
    struct StagedTable
    {
        core::PlanResult plan;
        tensor::Matrix fill_values;
        tensor::Matrix evict_values;
        // Optimizer state travels with the rows (AdaGrad only).
        tensor::Matrix fill_state;
        tensor::Matrix evict_state;
    };
    struct InFlight
    {
        uint64_t batch_index = 0;
        std::vector<StagedTable> per_table;
    };

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
    // Scratchpad-resident optimizer state, slot-aligned with each
    // controller's Storage array (AdaGrad only).
    std::vector<cache::SlotArray> state_storage_;
    core::HazardAuditor auditor_;
    bool auditing_ = false;
    std::unordered_map<uint64_t, InFlight> inflight_;
};

} // namespace sp::sys

#endif // SP_SYS_FUNCTIONAL_H
