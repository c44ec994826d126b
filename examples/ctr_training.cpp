/**
 * @file
 * Scenario: training a click-through-rate model for an e-commerce
 * recommender (the workload the paper's introduction motivates).
 *
 * A product-recommendation model sees a skewed item catalogue --
 * popular products dominate -- so we generate a Criteo-like High
 * locality trace, train the DLRM end to end with the pipelined
 * ScratchPipe runtime, and report learning curves, accuracy and
 * runtime statistics. A held-out slice of the trace estimates
 * generalisation.
 */

#include <cstdio>

#include "emb/embedding_ops.h"
#include "sys/functional.h"
#include "tensor/ops.h"

using namespace sp;

int
main()
{
    // E-commerce-flavoured model: 6 categorical features (user, item,
    // category, seller, brand, context), high-skew popularity.
    sys::ModelConfig model;
    model.trace.num_tables = 6;
    model.trace.rows_per_table = 2000; // catalogue shard
    model.trace.lookups_per_table = 3;
    model.trace.batch_size = 128;
    model.trace.dense_features = 8;
    model.trace.locality = data::Locality::High;
    model.trace.seed = 2024;
    model.embedding_dim = 16;
    model.bottom_hidden = {64, 32};
    model.top_hidden = {128, 64};
    model.learning_rate = 0.15f;

    constexpr uint64_t kTrainIters = 180;
    constexpr uint64_t kHeldOut = 20;
    data::TraceDataset dataset(model.trace, kTrainIters + kHeldOut);

    sys::FunctionalScratchPipeTrainer trainer(model,
                                              {.cache_fraction = 0.30});

    std::printf("training CTR model: 6 tables x %llu rows, batch %zu, "
                "High locality\n",
                static_cast<unsigned long long>(model.trace.rows_per_table),
                model.trace.batch_size);
    const auto run = trainer.train(dataset, kTrainIters);

    for (uint64_t i = 0; i < kTrainIters; i += 30) {
        std::printf("  iter %3llu  loss %.4f  acc %.3f\n",
                    static_cast<unsigned long long>(i), run.losses[i],
                    run.accuracies[i]);
    }
    std::printf("final quarter: loss %.4f, accuracy %.3f\n",
                run.finalLoss(), run.finalAccuracy());

    // Held-out evaluation: forward the trained model over unseen
    // batches. train() flushed all scratchpad-resident rows back, so
    // trainer.tables() is the complete trained embedding state.
    nn::DlrmModel eval_model = trainer.model();
    double held_out_loss = 0.0, held_out_acc = 0.0;
    for (uint64_t i = kTrainIters; i < kTrainIters + kHeldOut; ++i) {
        const auto &batch = dataset.batch(i);
        std::vector<tensor::Matrix> reduced(model.trace.num_tables);
        for (size_t t = 0; t < model.trace.num_tables; ++t) {
            reduced[t].resize(batch.batch_size, model.embedding_dim);
            emb::gatherReduce(trainer.tables()[t], batch.ids(t),
                              batch.lookups_per_table, reduced[t]);
        }
        const auto fwd = eval_model.forward(
            dataset.denseFeatures(i), reduced, dataset.labels(i));
        held_out_loss += fwd.loss;
        held_out_acc += fwd.accuracy;
    }
    std::printf("held-out (%llu batches): loss %.4f, accuracy %.3f\n",
                static_cast<unsigned long long>(kHeldOut),
                held_out_loss / kHeldOut, held_out_acc / kHeldOut);

    const auto stats = trainer.aggregateStats();
    std::printf("\nruntime: %llu plans, hit rate %.1f%%, %llu fills, "
                "%llu write-backs, %llu hazard checks (all clean)\n",
                static_cast<unsigned long long>(stats.plans),
                100.0 * trainer.hitRate(),
                static_cast<unsigned long long>(stats.fills),
                static_cast<unsigned long long>(stats.evictions),
                static_cast<unsigned long long>(
                    trainer.auditor().checkedAccesses()));
    return 0;
}
