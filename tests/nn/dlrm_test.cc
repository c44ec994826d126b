/** @file End-to-end DLRM backend tests. */

#include <gtest/gtest.h>

#include <cmath>

#include "common/logging.h"
#include "nn/dlrm.h"
#include "nn/flops.h"
#include "sys/system_config.h"
#include "tensor/rng.h"

namespace sp::nn
{
namespace
{

DlrmConfig
tinyConfig()
{
    DlrmConfig config;
    config.num_tables = 3;
    config.embedding_dim = 8;
    config.dense_features = 4;
    config.bottom_hidden = {16};
    config.top_hidden = {32, 16};
    config.learning_rate = 0.05f;
    return config;
}

struct Inputs
{
    tensor::Matrix dense;
    std::vector<tensor::Matrix> reduced;
    tensor::Matrix labels;
};

Inputs
makeInputs(const DlrmConfig &config, size_t batch, uint64_t seed)
{
    tensor::Rng rng(seed);
    Inputs in;
    in.dense.resize(batch, config.dense_features);
    in.dense.fillNormal(rng, 1.0f);
    in.reduced.assign(config.num_tables,
                      tensor::Matrix(batch, config.embedding_dim));
    for (auto &r : in.reduced)
        r.fillNormal(rng, 0.5f);
    in.labels.resize(batch, 1);
    for (size_t i = 0; i < batch; ++i)
        in.labels(i, 0) = rng.bernoulli(0.5) ? 1.0f : 0.0f;
    return in;
}

TEST(Dlrm, ForwardProducesFiniteLoss)
{
    DlrmModel model(tinyConfig(), 1);
    auto in = makeInputs(tinyConfig(), 16, 2);
    const auto result = model.forward(in.dense, in.reduced, in.labels);
    EXPECT_TRUE(std::isfinite(result.loss));
    EXPECT_GE(result.accuracy, 0.0);
    EXPECT_LE(result.accuracy, 1.0);
}

TEST(Dlrm, UntrainedLossNearChance)
{
    DlrmModel model(tinyConfig(), 3);
    auto in = makeInputs(tinyConfig(), 256, 4);
    const auto result = model.forward(in.dense, in.reduced, in.labels);
    // Untrained logits are small, so loss should be near ln 2.
    EXPECT_NEAR(result.loss, std::log(2.0), 0.25);
}

TEST(Dlrm, BackwardShapes)
{
    DlrmModel model(tinyConfig(), 5);
    auto in = makeInputs(tinyConfig(), 8, 6);
    model.forward(in.dense, in.reduced, in.labels);
    std::vector<tensor::Matrix> emb_grads;
    model.backward(emb_grads);
    ASSERT_EQ(emb_grads.size(), 3u);
    for (const auto &g : emb_grads) {
        EXPECT_EQ(g.rows(), 8u);
        EXPECT_EQ(g.cols(), 8u);
    }
}

TEST(Dlrm, EmbeddingGradientsMatchFiniteDifferences)
{
    const DlrmConfig config = tinyConfig();
    DlrmModel model(config, 7);
    auto in = makeInputs(config, 4, 8);

    model.forward(in.dense, in.reduced, in.labels);
    std::vector<tensor::Matrix> emb_grads;
    model.backward(emb_grads);

    const float eps = 1e-3f;
    auto loss = [&]() {
        return model.forward(in.dense, in.reduced, in.labels).loss;
    };
    // Spot-check a few coordinates in each table's gradient.
    for (size_t t = 0; t < config.num_tables; ++t) {
        for (size_t i = 0; i < 2; ++i) {
            for (size_t d = 0; d < 3; ++d) {
                const float saved = in.reduced[t](i, d);
                in.reduced[t](i, d) = saved + eps;
                const double up = loss();
                in.reduced[t](i, d) = saved - eps;
                const double down = loss();
                in.reduced[t](i, d) = saved;
                EXPECT_NEAR(emb_grads[t](i, d),
                            (up - down) / (2.0 * eps), 2e-3)
                    << "table " << t << " (" << i << "," << d << ")";
            }
        }
    }
}

TEST(Dlrm, TrainingReducesLossOnFixedBatch)
{
    // Overfit one fixed batch: with a healthy backward pass the BCE
    // loss must fall well below its starting point.
    DlrmConfig config = tinyConfig();
    config.learning_rate = 0.5f; // gradients carry a 1/batch factor
    DlrmModel model(config, 9);
    auto in = makeInputs(config, 64, 10);
    const double before =
        model.forward(in.dense, in.reduced, in.labels).loss;
    for (int step = 0; step < 400; ++step) {
        model.forward(in.dense, in.reduced, in.labels);
        std::vector<tensor::Matrix> emb_grads;
        model.backward(emb_grads);
        model.step();
    }
    const double after =
        model.forward(in.dense, in.reduced, in.labels).loss;
    EXPECT_LT(after, before * 0.8);
}

TEST(Dlrm, SameSeedIdenticalModels)
{
    DlrmModel a(tinyConfig(), 11), b(tinyConfig(), 11);
    EXPECT_TRUE(DlrmModel::identical(a, b));
    DlrmModel c(tinyConfig(), 12);
    EXPECT_FALSE(DlrmModel::identical(a, c));
}

TEST(Dlrm, IdenticalTrainingKeepsModelsIdentical)
{
    DlrmModel a(tinyConfig(), 13), b(tinyConfig(), 13);
    auto in = makeInputs(tinyConfig(), 16, 14);
    for (int step = 0; step < 5; ++step) {
        std::vector<tensor::Matrix> ga, gb;
        a.forward(in.dense, in.reduced, in.labels);
        a.backward(ga);
        a.step();
        b.forward(in.dense, in.reduced, in.labels);
        b.backward(gb);
        b.step();
    }
    EXPECT_TRUE(DlrmModel::identical(a, b));
}

TEST(Dlrm, ParameterCountMatchesArchitecture)
{
    const DlrmConfig config = tinyConfig();
    DlrmModel model(config, 15);
    // Bottom: 4->16->8; top: (8 + C(4,2)=6)=14 -> 32 -> 16 -> 1.
    const size_t bottom = (4 * 16 + 16) + (16 * 8 + 8);
    const size_t top = (14 * 32 + 32) + (32 * 16 + 16) + (16 * 1 + 1);
    EXPECT_EQ(model.parameterCount(), bottom + top);
}

TEST(Dlrm, ConfigCountsParametersWithoutBuilding)
{
    for (const sys::ModelConfig &model :
         {sys::ModelConfig::paperDefault(),
          sys::ModelConfig::functionalScale()}) {
        const DlrmConfig config = model.dlrmConfig();
        EXPECT_EQ(config.parameterCount(),
                  DlrmModel(config, 3).parameterCount());
    }
}

TEST(Dlrm, FlopCountPositiveAndScalesWithBatch)
{
    const DlrmConfig config = tinyConfig();
    const double f1 = dlrmIterationFlops(config, 16);
    const double f2 = dlrmIterationFlops(config, 32);
    EXPECT_GT(f1, 0.0);
    EXPECT_NEAR(f2 / f1, 2.0, 1e-9);
}

TEST(Dlrm, PaperScaleFlopsReasonable)
{
    DlrmConfig config;
    config.num_tables = 8;
    config.embedding_dim = 128;
    config.dense_features = 13;
    // MLPerf-like DLRM at batch 2048: tens of GFLOPs per iteration.
    const double flops = dlrmIterationFlops(config, 2048);
    EXPECT_GT(flops, 5e9);
    EXPECT_LT(flops, 1e11);
}

TEST(Dlrm, BackwardWithoutForwardPanics)
{
    DlrmModel model(tinyConfig(), 16);
    std::vector<tensor::Matrix> emb_grads;
    EXPECT_THROW(model.backward(emb_grads), PanicError);
}

TEST(Dlrm, WrongTableCountPanics)
{
    DlrmModel model(tinyConfig(), 17);
    auto in = makeInputs(tinyConfig(), 4, 18);
    in.reduced.pop_back();
    EXPECT_THROW(model.forward(in.dense, in.reduced, in.labels),
                 PanicError);
}

} // namespace
} // namespace sp::nn
