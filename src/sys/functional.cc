#include "sys/functional.h"

#include <algorithm>
#include <cstring>
#include <span>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "data/access_stats.h"
#include "emb/embedding_ops.h"
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

/** Routes cached IDs to the cache storage, the rest to the table. */
class SplitAccessor : public emb::RowAccessor
{
  public:
    SplitAccessor(cache::StaticCache &cache, emb::EmbeddingTable &table)
        : cache_(cache), cache_accessor_(cache.accessor()), table_(table)
    {
    }

    float *
    row(uint64_t id) override
    {
        if (cache_.slotFor(id) != cache::RowIndex::kNotFound)
            return cache_accessor_.row(id);
        return table_.row(id);
    }

    const float *
    row(uint64_t id) const override
    {
        if (cache_.slotFor(id) != cache::RowIndex::kNotFound)
            return cache_accessor_.row(id);
        return table_.row(id);
    }

    size_t dim() const override { return table_.dim(); }

  private:
    cache::StaticCache &cache_;
    cache::StaticCache::Accessor cache_accessor_;
    emb::EmbeddingTable &table_;
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

    std::vector<cache::StaticCache> caches;
    caches.reserve(config_.trace.num_tables);
    for (size_t t = 0; t < config_.trace.num_tables; ++t) {
        auto ranked = stats.rankedRows(t);
        ranked.resize(std::min<size_t>(ranked.size(), cached_rows_));
        caches.emplace_back(ranked, config_.embedding_dim);
        caches.back().fillFrom(tables_[t]);
    }

    std::vector<SplitAccessor> split;
    split.reserve(config_.trace.num_tables);
    for (size_t t = 0; t < config_.trace.num_tables; ++t)
        split.emplace_back(caches[t], tables_[t]);
    std::vector<emb::RowAccessor *> accessors;
    for (auto &accessor : split)
        accessors.push_back(&accessor);

    FunctionalRunResult result;
    for (uint64_t i = 0; i < iterations; ++i) {
        const auto &batch = dataset.batch(i);
        for (size_t t = 0; t < batch.numTables(); ++t) {
            const auto query = caches[t].query(batch.ids(t));
            hits_ += query.hits;
            lookups_ += query.hits + query.misses;
        }
        double accuracy = 0.0;
        const double loss = functionalTrainStep(
            model_, accessors, batch, dataset.denseFeatures(i),
            dataset.labels(i), config_.learning_rate, &accuracy);
        result.losses.push_back(loss);
        result.accuracies.push_back(accuracy);
    }

    // Drain dirty cache contents so tables_ holds the full model.
    for (size_t t = 0; t < caches.size(); ++t)
        caches[t].flushTo(tables_[t]);
    return result;
}

double
FunctionalStaticCacheTrainer::hitRate() const
{
    return lookups_ == 0 ? 0.0
                         : static_cast<double>(hits_) /
                               static_cast<double>(lookups_);
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
    // Warm start pre-fills phantom Storage only: dense Storage would
    // hold no values for the pre-resident rows.
    options_.warm_start = false;
    controllers_ = makeScratchpadControllers(
        config_, options_, cache::SlotArray::Backing::Dense);
    if (config_.optimizer == Optimizer::AdaGrad) {
        // Optimizer state is slot-aligned with the scratchpad: the
        // accumulator of a resident row lives at the row's slot.
        for (const auto &controller : controllers_)
            state_storage_.emplace_back(controller.config().num_slots,
                                        controller.config().dim,
                                        cache::SlotArray::Backing::Dense);
    }
}

void
FunctionalScratchPipeTrainer::planBatch(const data::TraceDataset &dataset,
                                        uint64_t index)
{
    InFlight staged;
    staged.batch_index = index;
    staged.per_table.resize(config_.trace.num_tables);
    const auto &mini = dataset.batch(index);

    // One controller per table: the [Plan] stages are independent and
    // fan out across the shared pool (table t writes per_table[t]
    // only).
    const uint32_t fw = options_.pipelined ? options_.future_window : 0;
    common::parallelFor(
        config_.trace.num_tables,
        [this, &staged, &dataset, &mini, index, fw](size_t t) {
            std::vector<std::span<const uint64_t>> futures;
            futures.reserve(fw);
            for (uint32_t d = 1; d <= fw; ++d) {
                const auto *next = dataset.lookAhead(index, d);
                if (next == nullptr)
                    break;
                futures.emplace_back(next->ids(t));
            }
            staged.per_table[t].plan =
                controllers_[t].plan(mini.ids(t), futures);
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
        auto &staged = it->second.per_table[t];
        const auto &plan = staged.plan;

        // CPU side: gather the missed rows into the staging buffer.
        const bool adagrad = config_.optimizer == Optimizer::AdaGrad;
        staged.fill_values.resize(plan.fills.size(), dim);
        if (adagrad)
            staged.fill_state.resize(plan.fills.size(), dim);
        for (size_t f = 0; f < plan.fills.size(); ++f) {
            std::memcpy(staged.fill_values.row(f),
                        tables_[t].row(plan.fills[f].id),
                        dim * sizeof(float));
            if (adagrad) {
                std::memcpy(staged.fill_state.row(f),
                            state_tables_[t].row(plan.fills[f].id),
                            dim * sizeof(float));
            }
            if (auditing_)
                auditor_.collectReadsCpuRow(t, plan.fills[f].id);
        }

        // GPU side: read the victims' dirty values out of Storage.
        staged.evict_values.resize(plan.evictions.size(), dim);
        if (adagrad)
            staged.evict_state.resize(plan.evictions.size(), dim);
        for (size_t e = 0; e < plan.evictions.size(); ++e) {
            std::memcpy(
                staged.evict_values.row(e),
                controllers_[t].storage().slot(plan.evictions[e].slot),
                dim * sizeof(float));
            if (adagrad) {
                std::memcpy(staged.evict_state.row(e),
                            state_storage_[t].slot(plan.evictions[e].slot),
                            dim * sizeof(float));
            }
            if (auditing_)
                auditor_.collectReadsVictimSlot(t, plan.evictions[e].slot);
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
        auto &staged = it->second.per_table[t];
        const auto &plan = staged.plan;

        // Fills land in Storage (values + optimizer state).
        const bool adagrad = config_.optimizer == Optimizer::AdaGrad;
        for (size_t f = 0; f < plan.fills.size(); ++f) {
            std::memcpy(controllers_[t].storage().slot(plan.fills[f].slot),
                        staged.fill_values.row(f), dim * sizeof(float));
            if (adagrad) {
                std::memcpy(state_storage_[t].slot(plan.fills[f].slot),
                            staged.fill_state.row(f),
                            dim * sizeof(float));
            }
            if (auditing_)
                auditor_.insertWritesSlot(t, plan.fills[f].slot);
        }
        // Evicted (dirty) rows return to the CPU tables.
        for (size_t e = 0; e < plan.evictions.size(); ++e) {
            std::memcpy(tables_[t].row(plan.evictions[e].id),
                        staged.evict_values.row(e), dim * sizeof(float));
            if (adagrad) {
                std::memcpy(state_tables_[t].row(plan.evictions[e].id),
                            staged.evict_state.row(e),
                            dim * sizeof(float));
            }
            if (auditing_)
                auditor_.insertWritesCpuRow(t, plan.evictions[e].id);
        }
    }
}

namespace
{

/** Resolves resident IDs to their slot-aligned optimizer state. */
class SlotStateAccessor : public emb::RowAccessor
{
  public:
    SlotStateAccessor(core::ScratchPipeController &controller,
                      cache::SlotArray &storage)
        : controller_(controller), storage_(storage)
    {
    }
    float *
    row(uint64_t id) override
    {
        return storage_.slot(controller_.slotOf(id));
    }
    const float *
    row(uint64_t id) const override
    {
        return storage_.slot(controller_.slotOf(id));
    }
    size_t dim() const override { return storage_.dim(); }

  private:
    core::ScratchPipeController &controller_;
    cache::SlotArray &storage_;
};

} // namespace

void
FunctionalScratchPipeTrainer::trainBatch(const data::TraceDataset &dataset,
                                         uint64_t index,
                                         FunctionalRunResult &result)
{
    const auto &mini = dataset.batch(index);

    std::vector<core::ScratchPipeController::Accessor> table_accessors;
    table_accessors.reserve(controllers_.size());
    for (auto &controller : controllers_)
        table_accessors.push_back(controller.accessor());
    std::vector<emb::RowAccessor *> accessors;
    for (auto &accessor : table_accessors)
        accessors.push_back(&accessor);

    const bool adagrad = config_.optimizer == Optimizer::AdaGrad;
    std::vector<SlotStateAccessor> state_slot_accessors;
    std::vector<emb::RowAccessor *> state_accessors;
    if (adagrad) {
        state_slot_accessors.reserve(controllers_.size());
        for (size_t t = 0; t < controllers_.size(); ++t)
            state_slot_accessors.emplace_back(controllers_[t],
                                              state_storage_[t]);
        for (auto &accessor : state_slot_accessors)
            state_accessors.push_back(&accessor);
    }

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
        adagrad ? &state_accessors : nullptr, config_.adagrad_eps);
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
        controllers_[t].flushTo(tables_[t]);
        if (config_.optimizer == Optimizer::AdaGrad) {
            controllers_[t].forEachResident(
                [this, t](uint64_t key, uint32_t slot) {
                    std::memcpy(state_tables_[t].row(key),
                                state_storage_[t].slot(slot),
                                state_storage_[t].rowBytes());
                });
        }
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
