/**
 * @file
 * The DLRM backend: bottom MLP, feature interaction, top MLP, and the
 * sigmoid/BCE prediction head (paper Fig. 1, the "DNN layers").
 *
 * The embedding frontend is intentionally *not* part of this class:
 * the system models own embedding storage and movement (that is what
 * the paper is about) and hand reduced embeddings in / take embedding
 * gradients out through this interface, exactly at the boundary where
 * the CPU-GPU split sits in Fig. 4.
 */

#ifndef SP_NN_DLRM_H
#define SP_NN_DLRM_H

#include <vector>
#include <cstddef>

#include "nn/interaction.h"
#include "nn/mlp.h"
#include "tensor/matrix.h"
#include "tensor/rng.h"

namespace sp::nn
{

/** Architecture of the DLRM backend. */
struct DlrmConfig
{
    size_t num_tables = 8;
    size_t embedding_dim = 128;
    size_t dense_features = 13;
    /** Hidden widths of the bottom MLP (output layer is added to
     *  project to embedding_dim). */
    std::vector<size_t> bottom_hidden = {512, 256};
    /** Hidden widths of the top MLP (a final 1-wide logit layer is
     *  appended automatically). */
    std::vector<size_t> top_hidden = {1024, 1024, 512, 256};
    float learning_rate = 0.01f;

    /** Bottom MLP widths: dense_features, bottom_hidden...,
     *  embedding_dim. */
    std::vector<size_t> bottomDims() const;
    /** Top MLP widths: the interaction's output, top_hidden..., 1. */
    std::vector<size_t> topDims() const;
    /** Weights and biases of both MLPs, without building them. */
    size_t parameterCount() const;
};

/** Result of one forward pass. */
struct DlrmForwardResult
{
    double loss = 0.0;
    double accuracy = 0.0;
};

/** The trainable DNN backend of the RecSys model. */
class DlrmModel
{
  public:
    DlrmModel(const DlrmConfig &config, uint64_t seed);

    const DlrmConfig &config() const { return config_; }

    /**
     * Forward pass: dense features + per-table reduced embeddings ->
     * CTR probability, loss and accuracy against labels.
     */
    DlrmForwardResult forward(const tensor::Matrix &dense,
                              const std::vector<tensor::Matrix> &reduced,
                              const tensor::Matrix &labels);

    /**
     * Backward pass: produces the gradient of every table's reduced
     * embedding (to be routed back to the embedding layers) and stores
     * all MLP weight gradients.
     */
    void backward(std::vector<tensor::Matrix> &emb_grads);

    /** SGD update of all MLP weights. */
    void step();

    /** Parameter count of both MLPs. */
    size_t parameterCount() const;

    const Mlp &bottomMlp() const { return bottom_; }
    const Mlp &topMlp() const { return top_; }
    Mlp &bottomMlp() { return bottom_; }
    Mlp &topMlp() { return top_; }

    /** Bit-identical parameter comparison of two models. */
    static bool identical(const DlrmModel &a, const DlrmModel &b);

  private:
    DlrmConfig config_;
    Mlp bottom_;
    FeatureInteraction interaction_;
    Mlp top_;

    // Forward stash for backward().
    tensor::Matrix bottom_out_;
    tensor::Matrix interact_out_;
    tensor::Matrix logits_;
    tensor::Matrix probs_;
    tensor::Matrix labels_;
};

} // namespace sp::nn

#endif // SP_NN_DLRM_H
