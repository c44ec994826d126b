#include "sys/functional.h"

#include <algorithm>
#include <cstring>
#include <span>

#include "cache/row_index.h"
#include "common/logging.h"
#include "common/thread_pool.h"
#include "data/access_stats.h"
#include "emb/embedding_ops.h"
#include "sys/plan_fanout.h"
#include "sys/scratchpipe_sys.h"
#include "sys/system.h"

namespace sp::sys
{

namespace
{

double
meanOfQuarter(const std::vector<double> &values, bool final_quarter)
{
    if (values.empty())
        return 0.0;
    const size_t quarter = std::max<size_t>(1, values.size() / 4);
    const size_t begin = final_quarter ? values.size() - quarter : 0;
    double total = 0.0;
    for (size_t i = begin; i < begin + quarter; ++i)
        total += values[i];
    return total / static_cast<double>(quarter);
}

} // namespace

double
FunctionalRunResult::finalLoss() const
{
    return meanOfQuarter(losses, true);
}

double
FunctionalRunResult::finalAccuracy() const
{
    return meanOfQuarter(accuracies, true);
}

double
FunctionalRunResult::initialLoss() const
{
    return meanOfQuarter(losses, false);
}

namespace
{

/** Zero-initialised AdaGrad accumulator tables (same geometry). */
std::vector<emb::EmbeddingTable>
makeStateTables(const ModelConfig &config)
{
    std::vector<emb::EmbeddingTable> tables;
    if (config.optimizer != Optimizer::AdaGrad)
        return tables;
    tables.reserve(config.trace.num_tables);
    for (size_t t = 0; t < config.trace.num_tables; ++t) {
        tables.emplace_back(config.trace.rows_per_table,
                            config.embedding_dim);
    }
    return tables;
}

} // namespace

std::vector<emb::EmbeddingTable>
makeDenseTables(const ModelConfig &config)
{
    std::vector<emb::EmbeddingTable> tables;
    tables.reserve(config.trace.num_tables);
    for (size_t t = 0; t < config.trace.num_tables; ++t) {
        tables.emplace_back(config.trace.rows_per_table,
                            config.embedding_dim);
        tensor::Rng rng(config.model_seed * 1000003 + t);
        tables.back().initRandom(rng, 0.05f);
    }
    return tables;
}

double
functionalTrainStep(nn::DlrmModel &model,
                    std::vector<emb::RowAccessor *> &accessors,
                    const data::MiniBatch &batch,
                    const tensor::Matrix &dense,
                    const tensor::Matrix &labels, float lr,
                    double *accuracy,
                    std::vector<emb::RowAccessor *> *state_accessors,
                    float adagrad_eps)
{
    const size_t num_tables = batch.numTables();
    panicIf(accessors.size() != num_tables,
            "one accessor per table required");

    // Embedding forward: gather + reduce per table.
    std::vector<tensor::Matrix> reduced(num_tables);
    for (size_t t = 0; t < num_tables; ++t) {
        reduced[t].resize(batch.batch_size, accessors[t]->dim());
        emb::gatherReduce(*accessors[t], batch.ids(t),
                          batch.lookups_per_table, reduced[t]);
    }

    // DNN forward/backward.
    const auto forward = model.forward(dense, reduced, labels);
    std::vector<tensor::Matrix> emb_grads;
    model.backward(emb_grads);

    // Embedding backward: duplicate + coalesce + scatter per table.
    panicIf(state_accessors != nullptr &&
                state_accessors->size() != num_tables,
            "one state accessor per table required");
    for (size_t t = 0; t < num_tables; ++t) {
        const auto coalesced = emb::duplicateAndCoalesce(
            batch.ids(t), emb_grads[t], batch.lookups_per_table);
        if (state_accessors != nullptr) {
            emb::adagradScatter(*accessors[t], *(*state_accessors)[t],
                                coalesced, lr, adagrad_eps);
        } else {
            emb::sgdScatter(*accessors[t], coalesced, lr);
        }
    }
    model.step();

    if (accuracy != nullptr)
        *accuracy = forward.accuracy;
    return forward.loss;
}

// ---------------------------------------------------------------------
// Hybrid reference trainer
// ---------------------------------------------------------------------

FunctionalHybridTrainer::FunctionalHybridTrainer(const ModelConfig &config)
    : config_(config), tables_(makeDenseTables(config)),
      state_tables_(makeStateTables(config)),
      model_(config.dlrmConfig(), config.model_seed)
{
    config_.validate();
}

FunctionalRunResult
FunctionalHybridTrainer::train(const data::TraceDataset &dataset,
                               uint64_t iterations)
{
    fatalIf(iterations > dataset.numBatches(),
            "dataset has only ", dataset.numBatches(), " batches");
    FunctionalRunResult result;
    std::vector<emb::RowAccessor *> accessors;
    for (auto &table : tables_)
        accessors.push_back(&table);
    std::vector<emb::RowAccessor *> state_accessors;
    for (auto &table : state_tables_)
        state_accessors.push_back(&table);
    auto *state = state_tables_.empty() ? nullptr : &state_accessors;

    for (uint64_t i = 0; i < iterations; ++i) {
        double accuracy = 0.0;
        const double loss = functionalTrainStep(
            model_, accessors, dataset.batch(i), dataset.denseFeatures(i),
            dataset.labels(i), config_.learning_rate, &accuracy, state,
            config_.adagrad_eps);
        result.losses.push_back(loss);
        result.accuracies.push_back(accuracy);
    }
    return result;
}

// ---------------------------------------------------------------------
// Static-cache trainer
// ---------------------------------------------------------------------

namespace
{

/**
 * A table behind its static cache: the cached rows' copies sit in a
 * table with one row per slot, found through a row index, and every
 * other row is the table's own. Construction copies the cached rows
 * in; drain() copies them back.
 */
class StaticCachedTable : public emb::RowAccessor
{
  public:
    /** Slot i holds cached_rows[i]. */
    StaticCachedTable(emb::EmbeddingTable &table,
                      std::span<const uint64_t> cached_rows)
        : table_(table),
          copies_(cached_rows.size(), table.dim())
    {
        for (uint32_t slot = 0; slot < cached_rows.size(); ++slot) {
            index_.insert(cached_rows[slot], slot);
            std::memcpy(copies_.row(slot), table.row(cached_rows[slot]),
                        copies_.rowBytes());
        }
    }

    float *
    row(uint64_t id) override
    {
        const uint32_t slot = index_.find(id);
        return slot == cache::RowIndex::kNotFound ? table_.row(id)
                                                  : copies_.row(slot);
    }

    const float *
    row(uint64_t id) const override
    {
        const uint32_t slot = index_.find(id);
        return slot == cache::RowIndex::kNotFound ? table_.row(id)
                                                  : copies_.row(slot);
    }

    size_t dim() const override { return table_.dim(); }

    /** Write every cached copy back into the table. */
    void
    drain()
    {
        index_.forEach([this](uint64_t id, uint32_t slot) {
            std::memcpy(table_.row(id), copies_.row(slot),
                        copies_.rowBytes());
        });
    }

  private:
    emb::EmbeddingTable &table_;
    cache::RowIndex index_;
    emb::EmbeddingTable copies_;
};

} // namespace

FunctionalStaticCacheTrainer::FunctionalStaticCacheTrainer(
    const ModelConfig &config, double cache_fraction)
    : config_(config), tables_(makeDenseTables(config)),
      model_(config.dlrmConfig(), config.model_seed)
{
    config_.validate();
    cached_rows_ = cachedRows(config_, cache_fraction);
    fatalIf(config.optimizer != Optimizer::Sgd,
            "the static-cache trainer supports SGD only; use the hybrid "
            "or ScratchPipe trainers for AdaGrad");
}

FunctionalRunResult
FunctionalStaticCacheTrainer::train(const data::TraceDataset &dataset,
                                    uint64_t iterations)
{
    fatalIf(iterations > dataset.numBatches(),
            "dataset has only ", dataset.numBatches(), " batches");

    // Profile the training window to rank rows by access frequency --
    // the paper's "top-N most-frequently-accessed" cache contents.
    data::AccessStats stats(config_.trace.num_tables,
                            config_.trace.rows_per_table);
    for (uint64_t i = 0; i < iterations; ++i)
        stats.addBatch(dataset.batch(i));

    std::vector<StaticCachedTable> cached;
    cached.reserve(config_.trace.num_tables);
    std::vector<emb::RowAccessor *> accessors;
    for (size_t t = 0; t < config_.trace.num_tables; ++t) {
        auto ranked = stats.rankedRows(t);
        ranked.resize(std::min<size_t>(ranked.size(), cached_rows_));
        accessors.push_back(&cached.emplace_back(tables_[t], ranked));
    }

    FunctionalRunResult result;
    for (uint64_t i = 0; i < iterations; ++i) {
        double accuracy = 0.0;
        const double loss = functionalTrainStep(
            model_, accessors, dataset.batch(i), dataset.denseFeatures(i),
            dataset.labels(i), config_.learning_rate, &accuracy);
        result.losses.push_back(loss);
        result.accuracies.push_back(accuracy);
    }

    // Drain the cached copies so tables_ holds the full model.
    for (auto &table : cached)
        table.drain();
    return result;
}

// ---------------------------------------------------------------------
// ScratchPipe pipelined trainer
// ---------------------------------------------------------------------

FunctionalScratchPipeTrainer::FunctionalScratchPipeTrainer(
    const ModelConfig &config, const ScratchPipeOptions &options)
    : config_(config), options_(options), tables_(makeDenseTables(config)),
      state_tables_(makeStateTables(config)),
      model_(config.dlrmConfig(), config.model_seed)
{
    config_.validate();
    fatalIf(options.gpus != 1,
            "the functional ScratchPipe trainer runs on one GPU, got "
            "gpus=", options.gpus);
    // Warm start pre-fills the timing runs' scratchpads only: Storage
    // would hold no values for the pre-resident rows.
    options_.warm_start = false;
    const uint32_t slots = scratchpadSlots(config_, options_);
    for (size_t t = 0; t < config_.trace.num_tables; ++t) {
        controllers_.push_back(makeScratchpadController(config_, options_, t));
        storage_.emplace_back(slots, config_.embedding_dim);
        // The accumulator of a resident row lives at the row's slot.
        if (config_.optimizer == Optimizer::AdaGrad)
            state_storage_.emplace_back(slots, config_.embedding_dim);
    }
}

std::vector<FunctionalScratchPipeTrainer::RowPlane>
FunctionalScratchPipeTrainer::rowPlanes(size_t t)
{
    std::vector<RowPlane> planes{{&tables_[t], &storage_[t]}};
    if (!state_storage_.empty())
        planes.push_back({&state_tables_[t], &state_storage_[t]});
    return planes;
}

void
FunctionalScratchPipeTrainer::planBatch(const data::TraceDataset &dataset,
                                        uint64_t index)
{
    std::vector<StagedTable> staged(config_.trace.num_tables);

    // One controller per table: the [Plan] stages are independent and
    // fan out across the shared pool (table t writes staged[t] only).
    common::parallelFor(
        config_.trace.num_tables, [this, &staged, &dataset, index](size_t t) {
            std::vector<std::span<const uint64_t>> futures;
            staged[t].plan =
                planTableBatch(controllers_[t], dataset, index, t, futures);
        });
    inflight_.emplace(index, std::move(staged));
}

void
FunctionalScratchPipeTrainer::collectBatch(uint64_t index)
{
    auto it = inflight_.find(index);
    panicIf(it == inflight_.end(), "collect of unplanned batch ", index);
    const size_t dim = config_.embedding_dim;

    for (size_t t = 0; t < config_.trace.num_tables; ++t) {
        auto &staged = it->second[t];
        const auto &plan = staged.plan;
        const auto planes = rowPlanes(t);
        staged.fills.resize(planes.size());
        staged.evictions.resize(planes.size());
        for (size_t p = 0; p < planes.size(); ++p) {
            // CPU side: gather the missed rows into the staging buffer.
            staged.fills[p].resize(plan.fills.size(), dim);
            for (size_t f = 0; f < plan.fills.size(); ++f)
                std::memcpy(staged.fills[p].row(f),
                            planes[p].table->row(plan.fills[f].id),
                            dim * sizeof(float));
            // GPU side: read the victims' dirty rows out of the
            // scratchpad.
            staged.evictions[p].resize(plan.evictions.size(), dim);
            for (size_t e = 0; e < plan.evictions.size(); ++e)
                std::memcpy(staged.evictions[p].row(e),
                            planes[p].slots->row(plan.evictions[e].slot),
                            dim * sizeof(float));
        }
        if (auditing_) {
            for (const core::FillOp &fill : plan.fills)
                auditor_.collectReadsCpuRow(t, fill.id);
            for (const core::EvictOp &evict : plan.evictions)
                auditor_.collectReadsVictimSlot(t, evict.slot);
        }
    }
}

void
FunctionalScratchPipeTrainer::insertBatch(uint64_t index)
{
    auto it = inflight_.find(index);
    panicIf(it == inflight_.end(), "insert of uncollected batch ", index);
    const size_t dim = config_.embedding_dim;

    for (size_t t = 0; t < config_.trace.num_tables; ++t) {
        auto &staged = it->second[t];
        const auto &plan = staged.plan;
        const auto planes = rowPlanes(t);
        for (size_t p = 0; p < planes.size(); ++p) {
            // Fills land in the scratchpad; evicted (dirty) rows
            // return to the CPU tables.
            for (size_t f = 0; f < plan.fills.size(); ++f)
                std::memcpy(planes[p].slots->row(plan.fills[f].slot),
                            staged.fills[p].row(f), dim * sizeof(float));
            for (size_t e = 0; e < plan.evictions.size(); ++e)
                std::memcpy(planes[p].table->row(plan.evictions[e].id),
                            staged.evictions[p].row(e),
                            dim * sizeof(float));
        }
        if (auditing_) {
            for (const core::FillOp &fill : plan.fills)
                auditor_.insertWritesSlot(t, fill.slot);
            for (const core::EvictOp &evict : plan.evictions)
                auditor_.insertWritesCpuRow(t, evict.id);
        }
    }
}

void
FunctionalScratchPipeTrainer::trainBatch(const data::TraceDataset &dataset,
                                         uint64_t index,
                                         FunctionalRunResult &result)
{
    const auto &mini = dataset.batch(index);

    // Each ID resolves through its table's controller to its Storage
    // slot and, under AdaGrad, to the same slot of the state plane.
    std::vector<core::ScratchPipeController::Accessor> value_slots;
    std::vector<core::ScratchPipeController::Accessor> state_slots;
    for (size_t t = 0; t < controllers_.size(); ++t) {
        value_slots.emplace_back(controllers_[t], storage_[t]);
        if (!state_storage_.empty())
            state_slots.emplace_back(controllers_[t], state_storage_[t]);
    }
    std::vector<emb::RowAccessor *> accessors;
    for (auto &accessor : value_slots)
        accessors.push_back(&accessor);
    std::vector<emb::RowAccessor *> state_accessors;
    for (auto &accessor : state_slots)
        state_accessors.push_back(&accessor);

    if (auditing_) {
        for (size_t t = 0; t < mini.numTables(); ++t) {
            for (uint64_t id : emb::uniqueIds(mini.ids(t)))
                auditor_.trainWritesSlot(t, controllers_[t].slotOf(id));
        }
    }

    double accuracy = 0.0;
    const double loss = functionalTrainStep(
        model_, accessors, mini, dataset.denseFeatures(index),
        dataset.labels(index), config_.learning_rate, &accuracy,
        state_accessors.empty() ? nullptr : &state_accessors,
        config_.adagrad_eps);
    result.losses.push_back(loss);
    result.accuracies.push_back(accuracy);

    // The batch has fully retired; its staging buffers are dead.
    inflight_.erase(index);
}

FunctionalRunResult
FunctionalScratchPipeTrainer::train(const data::TraceDataset &dataset,
                                    uint64_t iterations)
{
    fatalIf(iterations > dataset.numBatches(),
            "dataset has only ", dataset.numBatches(), " batches");
    FunctionalRunResult result;
    auditing_ = options_.pipelined;

    if (options_.pipelined) {
        // Stage schedule: batch b is planned at cycle b, collected at
        // b+1, exchanged at b+2, inserted at b+3, trained at b+4.
        // Within a cycle the oldest batch executes first, matching the
        // stage-ordered completion of the real pipeline.
        const uint64_t train_offset = 4;
        for (uint64_t cycle = 0; cycle < iterations + train_offset;
             ++cycle) {
            if (auditing_)
                auditor_.beginCycle(cycle);
            if (cycle >= train_offset && cycle - train_offset < iterations)
                trainBatch(dataset, cycle - train_offset, result);
            if (cycle >= 3 && cycle - 3 < iterations)
                insertBatch(cycle - 3);
            // [Exchange] at cycle-2 moves staged buffers across PCIe;
            // functionally the staging buffers already carry the data.
            if (cycle >= 1 && cycle - 1 < iterations)
                collectBatch(cycle - 1);
            if (cycle < iterations)
                planBatch(dataset, cycle);
            if (auditing_)
                auditor_.endCycle();
        }
    } else {
        // Straw-man: the same stages, one batch at a time.
        for (uint64_t i = 0; i < iterations; ++i) {
            planBatch(dataset, i);
            collectBatch(i);
            insertBatch(i);
            trainBatch(dataset, i, result);
        }
    }

    // Drain the scratchpad so tables_ is the complete trained model,
    // optimizer state included.
    for (size_t t = 0; t < controllers_.size(); ++t) {
        const auto planes = rowPlanes(t);
        controllers_[t].forEachResident(
            [&planes](uint64_t key, uint32_t slot) {
                for (const RowPlane &plane : planes)
                    std::memcpy(plane.table->row(key),
                                plane.slots->row(slot),
                                plane.slots->rowBytes());
            });
    }
    return result;
}

double
FunctionalScratchPipeTrainer::hitRate() const
{
    uint64_t hits = 0, total = 0;
    for (const auto &controller : controllers_) {
        hits += controller.stats().hits;
        total += controller.stats().hits + controller.stats().misses;
    }
    return total == 0 ? 0.0
                      : static_cast<double>(hits) /
                            static_cast<double>(total);
}

core::ControllerStats
FunctionalScratchPipeTrainer::aggregateStats() const
{
    core::ControllerStats total;
    for (const auto &controller : controllers_) {
        const auto &s = controller.stats();
        total.plans += s.plans;
        total.hits += s.hits;
        total.misses += s.misses;
        total.fills += s.fills;
        total.evictions += s.evictions;
    }
    return total;
}

} // namespace sp::sys
