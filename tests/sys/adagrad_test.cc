/**
 * @file
 * Sparse-AdaGrad extension tests.
 *
 * DLRM's production default is sparse AdaGrad for embeddings; under
 * ScratchPipe the per-row accumulator must migrate through the
 * scratchpad with its row (fills, evictions, write-backs, final
 * drain). These tests pin the algorithm (kernel-level), then assert
 * the pipelined trainer stays bit-identical to the sequential
 * reference *including the optimizer state*.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "common/logging.h"
#include "emb/embedding_ops.h"
#include "sys/functional.h"

namespace sp::sys
{
namespace
{

TEST(AdaGradKernel, MatchesHandComputedUpdate)
{
    emb::EmbeddingTable table(4, 2), state(4, 2);
    table.row(1)[0] = 1.0f;
    table.row(1)[1] = 2.0f;

    emb::CoalescedGradients coalesced;
    coalesced.ids = {1};
    coalesced.grads.resize(1, 2);
    coalesced.grads(0, 0) = 0.5f;
    coalesced.grads(0, 1) = -1.0f;

    emb::adagradScatter(table, state, coalesced, 0.1f, 1e-8f);
    // state = g^2; row -= lr*g/(sqrt(state)+eps) = lr*sign(g)
    EXPECT_FLOAT_EQ(state.row(1)[0], 0.25f);
    EXPECT_FLOAT_EQ(state.row(1)[1], 1.0f);
    EXPECT_NEAR(table.row(1)[0], 1.0f - 0.1f, 1e-6f);
    EXPECT_NEAR(table.row(1)[1], 2.0f + 0.1f, 1e-6f);
}

TEST(AdaGradKernel, AccumulatorShrinksLaterSteps)
{
    emb::EmbeddingTable table(2, 1), state(2, 1);
    emb::CoalescedGradients coalesced;
    coalesced.ids = {0};
    coalesced.grads.resize(1, 1);
    coalesced.grads(0, 0) = 1.0f;

    emb::adagradScatter(table, state, coalesced, 1.0f, 0.0f);
    const float first_step = -table.row(0)[0];
    const float before = table.row(0)[0];
    emb::adagradScatter(table, state, coalesced, 1.0f, 0.0f);
    const float second_step = before - table.row(0)[0];
    EXPECT_GT(first_step, second_step); // 1 vs 1/sqrt(2)
    EXPECT_NEAR(second_step, 1.0f / std::sqrt(2.0f), 1e-6f);
}

TEST(AdaGradKernel, DimensionMismatchPanics)
{
    emb::EmbeddingTable table(2, 2), state(2, 3);
    emb::CoalescedGradients coalesced;
    coalesced.ids = {0};
    coalesced.grads.resize(1, 2);
    EXPECT_THROW(emb::adagradScatter(table, state, coalesced, 0.1f, 0.0f),
                 PanicError);
}

ModelConfig
adagradModel(uint64_t seed)
{
    ModelConfig model = ModelConfig::functionalScale();
    model.trace.locality = data::Locality::Medium;
    model.trace.seed = seed;
    model.optimizer = Optimizer::AdaGrad;
    return model;
}

TEST(AdaGradPipeline, ScratchPipeMatchesHybridBitForBit)
{
    const ModelConfig model = adagradModel(111);
    data::TraceDataset dataset(model.trace, 14);

    FunctionalHybridTrainer hybrid(model);
    FunctionalScratchPipeTrainer scratchpipe(
        model, ScratchPipeOptions{.cache_fraction = 0.25});
    const auto r_hybrid = hybrid.train(dataset, 14);
    const auto r_sp = scratchpipe.train(dataset, 14);

    for (size_t t = 0; t < model.trace.num_tables; ++t) {
        EXPECT_TRUE(emb::EmbeddingTable::identical(
            hybrid.tables()[t], scratchpipe.tables()[t]))
            << "values diverged, table " << t;
        EXPECT_TRUE(emb::EmbeddingTable::identical(
            hybrid.stateTables()[t], scratchpipe.stateTables()[t]))
            << "optimizer state diverged, table " << t;
    }
    EXPECT_TRUE(
        nn::DlrmModel::identical(hybrid.model(), scratchpipe.model()));
    EXPECT_EQ(r_hybrid.losses, r_sp.losses);
}

TEST(AdaGradPipeline, StrawmanMatchesToo)
{
    const ModelConfig model = adagradModel(113);
    data::TraceDataset dataset(model.trace, 12);

    FunctionalHybridTrainer hybrid(model);
    FunctionalScratchPipeTrainer strawman(
        model, {.cache_fraction = 0.25, .pipelined = false});
    hybrid.train(dataset, 12);
    strawman.train(dataset, 12);

    for (size_t t = 0; t < model.trace.num_tables; ++t) {
        EXPECT_TRUE(emb::EmbeddingTable::identical(
            hybrid.tables()[t], strawman.tables()[t]));
        EXPECT_TRUE(emb::EmbeddingTable::identical(
            hybrid.stateTables()[t], strawman.stateTables()[t]));
    }
}

TEST(AdaGradPipeline, DiffersFromSgdTraining)
{
    // Negative control: AdaGrad must actually change the trajectory.
    ModelConfig sgd_model = adagradModel(115);
    sgd_model.optimizer = Optimizer::Sgd;
    const ModelConfig ada_model = adagradModel(115);
    data::TraceDataset dataset(sgd_model.trace, 10);

    FunctionalHybridTrainer sgd(sgd_model), ada(ada_model);
    sgd.train(dataset, 10);
    ada.train(dataset, 10);
    EXPECT_FALSE(emb::EmbeddingTable::identical(sgd.tables()[0],
                                                ada.tables()[0]));
}

TEST(AdaGradPipeline, LearnsOnSyntheticCtr)
{
    ModelConfig model = adagradModel(117);
    model.trace.batch_size = 64;
    model.trace.rows_per_table = 256;
    model.learning_rate = 0.1f; // AdaGrad tolerates a high base rate
    data::TraceDataset dataset(model.trace, 150);

    FunctionalHybridTrainer trainer(model);
    const auto result = trainer.train(dataset, 150);
    EXPECT_LT(result.finalLoss(), result.initialLoss() - 0.02);
}

TEST(AdaGradPipeline, StateBytesReported)
{
    const ModelConfig ada = adagradModel(1);
    EXPECT_EQ(ada.optimizerStateBytesPerRow(),
              ada.embedding_dim * sizeof(float));
    ModelConfig sgd = ada;
    sgd.optimizer = Optimizer::Sgd;
    EXPECT_EQ(sgd.optimizerStateBytesPerRow(), 0u);
}

TEST(AdaGradPipeline, StaticCacheTrainerRejectsAdaGrad)
{
    const ModelConfig model = adagradModel(119);
    EXPECT_THROW(FunctionalStaticCacheTrainer(model, 0.1), FatalError);
}

TEST(AdaGradPipeline, OptimizerNames)
{
    EXPECT_STREQ(optimizerName(Optimizer::Sgd), "SGD");
    EXPECT_STREQ(optimizerName(Optimizer::AdaGrad), "AdaGrad");
}

/** FNV-1a over `size` bytes at `bytes`, continuing from `hash`. */
uint64_t
fnv1a(uint64_t hash, const void *bytes, size_t size)
{
    const auto *p = static_cast<const unsigned char *>(bytes);
    for (size_t i = 0; i < size; ++i)
        hash = (hash ^ p[i]) * 0x100000001b3ull;
    return hash;
}

TEST(FunctionalHistory, PipelinedAdaGradDigestIsPinned)
{
    // The equivalence tests compare the trainers with each other, so a
    // change that moves every trainer alike passes them. This pins the
    // pipelined trainer's values, AdaGrad state and losses to the bits
    // it produced when the digest was recorded. A deliberate change to
    // the functional math records a new digest here.
    ModelConfig model = adagradModel(121);
    model.trace.locality = data::Locality::Low;
    data::TraceDataset dataset(model.trace, 16);
    FunctionalScratchPipeTrainer trainer(model, {.cache_fraction = 0.05});
    const auto result = trainer.train(dataset, 16);
    ASSERT_GT(trainer.aggregateStats().evictions, 0u);

    uint64_t digest = 0xcbf29ce484222325ull;
    for (const auto *tables : {&trainer.tables(), &trainer.stateTables()}) {
        ASSERT_EQ(tables->size(), model.trace.num_tables);
        for (const emb::EmbeddingTable &table : *tables) {
            for (uint64_t r = 0; r < table.rows(); ++r)
                digest = fnv1a(digest, table.row(r), table.rowBytes());
        }
    }
    for (const double loss : result.losses)
        digest = fnv1a(digest, &loss, sizeof loss);
    EXPECT_EQ(digest, 0x9436f13105b1f1acull);
}

} // namespace
} // namespace sp::sys
