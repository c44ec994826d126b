#include "nn/dlrm.h"

#include "common/logging.h"
#include "tensor/ops.h"

namespace sp::nn
{

std::vector<size_t>
DlrmConfig::bottomDims() const
{
    std::vector<size_t> dims;
    dims.push_back(dense_features);
    dims.insert(dims.end(), bottom_hidden.begin(), bottom_hidden.end());
    dims.push_back(embedding_dim);
    return dims;
}

std::vector<size_t>
DlrmConfig::topDims() const
{
    const size_t f = num_tables + 1;
    const size_t interact = embedding_dim + f * (f - 1) / 2;
    std::vector<size_t> dims;
    dims.push_back(interact);
    dims.insert(dims.end(), top_hidden.begin(), top_hidden.end());
    dims.push_back(1);
    return dims;
}

size_t
DlrmConfig::parameterCount() const
{
    size_t total = 0;
    for (const auto &dims : {bottomDims(), topDims()}) {
        // Each layer: an out x in weight matrix and out biases.
        for (size_t i = 0; i + 1 < dims.size(); ++i)
            total += (dims[i] + 1) * dims[i + 1];
    }
    return total;
}

DlrmModel::DlrmModel(const DlrmConfig &config, uint64_t seed)
    : config_(config),
      bottom_([&] {
          tensor::Rng rng(seed * 2 + 1);
          return Mlp(config.bottomDims(), rng, true);
      }()),
      interaction_(config.num_tables, config.embedding_dim),
      top_([&] {
          tensor::Rng rng(seed * 2 + 2);
          return Mlp(config.topDims(), rng, false);
      }())
{
}

DlrmForwardResult
DlrmModel::forward(const tensor::Matrix &dense,
                   const std::vector<tensor::Matrix> &reduced,
                   const tensor::Matrix &labels)
{
    panicIf(reduced.size() != config_.num_tables,
            "DLRM forward expects ", config_.num_tables,
            " reduced embeddings, got ", reduced.size());
    bottom_.forward(dense, bottom_out_);
    interaction_.forward(bottom_out_, reduced, interact_out_);
    top_.forward(interact_out_, logits_);

    probs_.resize(logits_.rows(), logits_.cols());
    tensor::sigmoidForward(logits_, probs_);
    labels_ = labels;

    DlrmForwardResult result;
    result.loss = tensor::bceLoss(probs_, labels_);
    result.accuracy = tensor::binaryAccuracy(probs_, labels_);
    return result;
}

void
DlrmModel::backward(std::vector<tensor::Matrix> &emb_grads)
{
    panicIf(probs_.empty(), "DLRM backward without a preceding forward");

    tensor::Matrix dlogits(probs_.rows(), probs_.cols());
    tensor::bceSigmoidBackward(probs_, labels_, dlogits);

    tensor::Matrix dinteract;
    top_.backward(dlogits, dinteract);

    tensor::Matrix dbottom_out;
    interaction_.backward(dinteract, dbottom_out, emb_grads);

    tensor::Matrix ddense;
    bottom_.backward(dbottom_out, ddense);
}

void
DlrmModel::step()
{
    bottom_.step(config_.learning_rate);
    top_.step(config_.learning_rate);
}

size_t
DlrmModel::parameterCount() const
{
    return bottom_.parameterCount() + top_.parameterCount();
}

bool
DlrmModel::identical(const DlrmModel &a, const DlrmModel &b)
{
    return Mlp::identical(a.bottom_, b.bottom_) &&
           Mlp::identical(a.top_, b.top_);
}

} // namespace sp::nn
