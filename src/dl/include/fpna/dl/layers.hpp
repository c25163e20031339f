#pragma once
// GNN layers with explicit (manual) backward passes: Linear, GraphSAGE
// mean-aggregation convolution, ReLU, log-softmax and masked NLL loss.
//
// The single source of non-determinism in the whole stack is the
// index_add used by neighbour aggregation on the non-deterministic path -
// in the forward direction (sum messages into destination nodes) and in
// the backward direction (scatter gradients back to source nodes) -
// exactly matching the paper's statement that "the only source of
// non-determinism in our implementation of this DNN is the index_add
// operation" (SV.B). The deterministic path computes the same
// per-destination streams as the deterministic index_add, without the
// per-element contribution list: each output row folds its neighbours'
// rows over the graph's CSR grouping (dl/aggregate.hpp, the kernel
// serving shares).

#include <cstdint>
#include <functional>
#include <vector>

#include "fpna/core/eval_context.hpp"
#include "fpna/dl/graph.hpp"
#include "fpna/dl/linalg.hpp"
#include "fpna/util/rng.hpp"

namespace fpna::dl {

/// Invoked by a layer's backward as a parameter's gradient buffer
/// receives its final contribution - the DDP hook: a data-parallel
/// trainer can hand each finished gradient to a comm::BucketScheduler
/// and overlap the bucket's allreduce with the rest of the backward
/// pass, instead of waiting for every gradient to land. The argument
/// identifies the buffer (compare against the model's parameters()
/// gradient pointers). An empty sink costs one branch per parameter.
using GradientSink = std::function<void(const Matrix* grad)>;

/// Mean neighbour aggregation: out[v] = (1/deg(v)) sum_{u -> v} x[u].
/// Forward of the GraphSAGE aggregator. Deterministically, row v is
/// mean_rows_into over v's in-neighbours (Graph::in_adjacency, edge
/// order); when ctx requests ND, the sum is an index_add over the edge
/// list. With a recorder: span and "result" provenance site
/// "dl.mean_aggregate".
Matrix mean_aggregate(const Matrix& x, const Graph& graph,
                      const core::EvalContext& ctx);

/// Backward of mean_aggregate: dX[u] += dOut[v] / deg(v) over edges
/// u -> v. dOut is pre-scaled by 1/deg, then row u sums the scaled rows
/// of its out-neighbours (Graph::out_adjacency, edge order) - the
/// index_add with the edge roles swapped, which the ND path runs. Site
/// "dl.mean_aggregate_backward".
Matrix mean_aggregate_backward(const Matrix& d_out, const Graph& graph,
                               const core::EvalContext& ctx);

/// Fully connected layer y = x W + b, weights Glorot-uniform initialised.
/// The matmuls run on ctx.pool when one is provided - bitwise identical
/// to serial for every registry accumulator (row-blocked, see linalg.hpp).
class Linear {
 public:
  Linear(std::int64_t in_features, std::int64_t out_features,
         util::Xoshiro256pp& rng);

  Matrix forward(const Matrix& x, const core::EvalContext& ctx = {}) const;

  /// Accumulates dW, db and returns dX. `x` must be the forward input.
  /// `sink` (if set) fires for grad_weight then grad_bias once each holds
  /// its final value - valid only when backward runs once per step.
  Matrix backward(const Matrix& x, const Matrix& d_out,
                  const core::EvalContext& ctx = {},
                  const GradientSink& sink = {});

  /// backward without dX: accumulates dW, db only (same sink firings).
  void accumulate_gradients(const Matrix& x, const Matrix& d_out,
                            const core::EvalContext& ctx = {},
                            const GradientSink& sink = {});

  void zero_grad();

  Matrix weight;  // [in, out]
  Matrix bias;    // [out]
  Matrix grad_weight;
  Matrix grad_bias;
};

/// GraphSAGE convolution: out = x W_self + mean_agg(x) W_neigh + b.
class SageConv {
 public:
  SageConv(std::int64_t in_features, std::int64_t out_features,
           util::Xoshiro256pp& rng);

  struct Cache {
    Matrix x;        // forward input
    Matrix h_neigh;  // aggregated neighbour features
  };

  /// mean_aggregate(x), then combine.
  Matrix forward(const Matrix& x, const Graph& graph,
                 const core::EvalContext& ctx, Cache* cache = nullptr) const;

  /// The layer's dense half: x W_self + b + h_neigh W_neigh, with
  /// h_neigh the rows' aggregated neighbour features. Row i of the
  /// result depends on row i of x and h_neigh only (each dense kernel
  /// streams a row on its own), so serving runs it on a gathered batch
  /// of request rows and gets the full-graph forward's row bits.
  Matrix combine(const Matrix& x, const Matrix& h_neigh,
                 const core::EvalContext& ctx) const;

  /// Returns dX (both the self path and the aggregation path). `sink`
  /// fires for lin_self.grad_weight, lin_self.grad_bias and
  /// lin_neigh.grad_weight as each receives its final contribution (the
  /// folded-bias lin_neigh.grad_bias is not a parameter and never fires).
  Matrix backward(const Cache& cache, const Matrix& d_out, const Graph& graph,
                  const core::EvalContext& ctx,
                  const GradientSink& sink = {});

  /// backward without dX, for a first layer whose input takes no
  /// gradient: the parameter gradients and sink firings of backward,
  /// none of its input-gradient matmuls or aggregation.
  void accumulate_gradients(const Cache& cache, const Matrix& d_out,
                            const core::EvalContext& ctx,
                            const GradientSink& sink = {});

  void zero_grad();

  std::int64_t in_features() const noexcept { return lin_self.weight.size(0); }
  std::int64_t out_features() const noexcept {
    return lin_self.weight.size(1);
  }

  Linear lin_self;
  Linear lin_neigh;
};

/// Elementwise max(x, 0).
Matrix relu(const Matrix& x);
/// dZ = dOut where z > 0, else 0.
Matrix relu_backward(const Matrix& z, const Matrix& d_out);

/// Row-wise log-softmax (numerically stabilised with the row max).
Matrix log_softmax_rows(const Matrix& logits);

struct LossResult {
  double loss = 0.0;
  /// Gradient w.r.t. the *logits* (combined log-softmax + NLL backward).
  Matrix d_logits;
};

/// Mean negative log-likelihood over masked rows. `log_probs` must be the
/// output of log_softmax_rows on the logits. The loss reduction over rows
/// routes through the context's registry-selected accumulator (the serial
/// default reproduces the historic value bitwise). `grad_scale`
/// multiplies d_logits only - the loss-scaling entry point: the reported
/// loss is never scaled, and the multiply is fused here (after the
/// mean-NLL division, one rounding) so the scaled gradient path starts
/// from a single named operation. grad_scale == 1 is bitwise identity.
LossResult nll_loss_masked(const Matrix& log_probs,
                           const std::vector<std::int64_t>& labels,
                           const std::vector<char>& mask,
                           const core::EvalContext& ctx,
                           float grad_scale = 1.0f);
LossResult nll_loss_masked(const Matrix& log_probs,
                           const std::vector<std::int64_t>& labels,
                           const std::vector<char>& mask);

/// Row-wise argmax (predictions).
std::vector<std::int64_t> argmax_rows(const Matrix& scores);

}  // namespace fpna::dl
