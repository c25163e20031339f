#pragma once
// The paper's evaluation model (SV.B): a two-layer GraphSAGE network
// (SAGEConv -> ReLU -> SAGEConv -> log_softmax) trained with masked NLL.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "fpna/core/eval_context.hpp"
#include "fpna/dl/dataset.hpp"
#include "fpna/dl/layers.hpp"
#include "fpna/util/rng.hpp"

namespace fpna::dl {

class GraphSageModel {
 public:
  /// Weight initialisation is a pure function of `init_seed` (it must NOT
  /// depend on the run identity: the paper's point is that even with
  /// identical initialisation, ND kernels make every trained model
  /// unique).
  GraphSageModel(std::int64_t in_features, std::int64_t hidden,
                 std::int64_t num_classes, std::uint64_t init_seed);

  struct ForwardCache {
    SageConv::Cache conv1;
    Matrix z1;  // pre-activation of layer 1
    Matrix a1;  // relu(z1)
    SageConv::Cache conv2;
    Matrix logits;
  };

  /// Returns row-wise log-probabilities [nodes, classes].
  Matrix forward(const Matrix& features, const Graph& graph,
                 const core::EvalContext& ctx,
                 ForwardCache* cache = nullptr) const;

  /// Backward from d_logits; fills the layers' gradient buffers. `sink`
  /// (if set) fires as each parameter's gradient becomes final, in
  /// *reverse layer order* (conv2's parameters before conv1's - gradients
  /// are produced output-to-input), the readiness signal a DDP-style
  /// trainer feeds into comm::BucketScheduler to overlap gradient
  /// reduction with the rest of this very backward pass. No gradient
  /// w.r.t. the input features is formed (conv1 stops at its
  /// parameters).
  void backward(const ForwardCache& cache, const Matrix& d_logits,
                const Graph& graph, const core::EvalContext& ctx,
                const GradientSink& sink = {});

  /// The parameters() indices in the order backward() finalises their
  /// gradients: {3, 4, 5, 0, 1, 2} (conv2 then conv1, each layer in
  /// self-weight, self-bias, neigh-weight production order). Pinned by a
  /// dl_test property against an instrumented backward.
  std::vector<std::size_t> backward_gradient_order() const;

  void zero_grad();

  /// All parameters flattened to doubles in a fixed order, the vector the
  /// weight-variability metrics (Vermv, Vc) are evaluated on.
  std::vector<double> flattened_weights() const;

  /// Parameter/gradient pairs in registration order (for the optimizer).
  std::vector<std::pair<Matrix*, Matrix*>> parameters();

  std::int64_t hidden() const noexcept { return conv1.out_features(); }
  std::int64_t num_classes() const noexcept { return conv2.out_features(); }

  SageConv conv1;
  SageConv conv2;
};

}  // namespace fpna::dl
