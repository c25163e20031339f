#include "fpna/dl/model.hpp"

namespace fpna::dl {

namespace {

SageConv make_conv(std::int64_t in_features, std::int64_t out_features,
                   std::uint64_t seed) {
  util::Xoshiro256pp rng(seed);
  return SageConv(in_features, out_features, rng);
}

}  // namespace

GraphSageModel::GraphSageModel(std::int64_t in_features, std::int64_t hidden,
                               std::int64_t num_classes,
                               std::uint64_t init_seed)
    : conv1(make_conv(in_features, hidden, init_seed)),
      conv2(make_conv(hidden, num_classes,
                      init_seed ^ 0x9e3779b97f4a7c15ULL)) {}

Matrix GraphSageModel::forward(const Matrix& features, const Graph& graph,
                               const core::EvalContext& ctx,
                               ForwardCache* cache) const {
  SageConv::Cache c1;
  Matrix z1 = conv1.forward(features, graph, ctx, &c1);
  Matrix a1 = relu(z1);
  SageConv::Cache c2;
  Matrix logits = conv2.forward(a1, graph, ctx, &c2);
  Matrix log_probs = log_softmax_rows(logits);

  if (cache != nullptr) {
    cache->conv1 = std::move(c1);
    cache->z1 = std::move(z1);
    cache->a1 = std::move(a1);
    cache->conv2 = std::move(c2);
    cache->logits = std::move(logits);
  }
  return log_probs;
}

void GraphSageModel::backward(const ForwardCache& cache,
                              const Matrix& d_logits, const Graph& graph,
                              const core::EvalContext& ctx,
                              const GradientSink& sink) {
  const Matrix d_a1 = conv2.backward(cache.conv2, d_logits, graph, ctx, sink);
  const Matrix d_z1 = relu_backward(cache.z1, d_a1);
  // The input features take no gradient: layer 1 stops at its parameters.
  conv1.accumulate_gradients(cache.conv1, d_z1, ctx, sink);
}

std::vector<std::size_t> GraphSageModel::backward_gradient_order() const {
  // conv2 (the output layer) finalises first; within a SageConv the
  // gradients land self-weight, self-bias, neigh-weight (the layer
  // backward's computation order). Indices follow parameters().
  return {3, 4, 5, 0, 1, 2};
}

void GraphSageModel::zero_grad() {
  conv1.zero_grad();
  conv2.zero_grad();
}

std::vector<double> GraphSageModel::flattened_weights() const {
  std::vector<double> out;
  const auto append = [&out](const Matrix& m) {
    for (const float v : m.data()) out.push_back(static_cast<double>(v));
  };
  append(conv1.lin_self.weight);
  append(conv1.lin_self.bias);
  append(conv1.lin_neigh.weight);
  append(conv2.lin_self.weight);
  append(conv2.lin_self.bias);
  append(conv2.lin_neigh.weight);
  return out;
}

std::vector<std::pair<Matrix*, Matrix*>> GraphSageModel::parameters() {
  return {
      {&conv1.lin_self.weight, &conv1.lin_self.grad_weight},
      {&conv1.lin_self.bias, &conv1.lin_self.grad_bias},
      {&conv1.lin_neigh.weight, &conv1.lin_neigh.grad_weight},
      {&conv2.lin_self.weight, &conv2.lin_self.grad_weight},
      {&conv2.lin_self.bias, &conv2.lin_self.grad_bias},
      {&conv2.lin_neigh.weight, &conv2.lin_neigh.grad_weight},
  };
}

}  // namespace fpna::dl
