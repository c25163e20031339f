#include "fpna/serve/session.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "fpna/dl/aggregate.hpp"
#include "fpna/dl/layers.hpp"
#include "fpna/obs/recorder.hpp"
#include "fpna/util/thread_pool.hpp"

namespace fpna::serve {

namespace {

std::uint64_t row_bits(std::span<const float> values) {
  obs::Fingerprint print;
  print.feed(values);
  return print.value();
}

}  // namespace

InferenceSession::InferenceSession(const dl::GraphSageModel& model,
                                   const dl::Dataset& dataset,
                                   const core::EvalContext& ctx)
    : model_(model), features_(dataset.features) {
  if (features_.size(0) != dataset.graph.num_nodes()) {
    throw std::invalid_argument(
        "InferenceSession: feature rows != deployed nodes");
  }
  // The cache rows are bitwise the offline forward's a1 because they ARE
  // the offline kernels' output (same code path, same spec, and pooled
  // execution is certified bitwise-identical to serial).
  h1_ = dl::relu(model_.conv1.forward(features_, dataset.graph, ctx));
}

std::vector<float> InferenceSession::row_forward(
    const Request& request, const core::EvalContext& ctx) const {
  std::vector<RowOutcome> outcome =
      batch_forward(std::span<const Request>(&request, 1), ctx);
  if (outcome[0].error != nullptr) std::rethrow_exception(outcome[0].error);
  return std::move(outcome[0].log_probs);
}

std::vector<RowOutcome> InferenceSession::batch_forward(
    std::span<const Request> batch, const core::EvalContext& ctx,
    const FaultHook& fault_hook) const {
  const std::int64_t f = num_features(), h = hidden();
  std::vector<RowOutcome> outcomes(batch.size());
  obs::Span span(ctx.recorder, "serve.batch");
  if (ctx.recorder != nullptr) {
    span.arg("rows", static_cast<std::uint64_t>(batch.size()));
    span.arg("spec", fp::to_string(ctx.reduction_in_effect()));
  }

  // The dense kernels run unpooled (a pool task must not wait on its own
  // pool) and untraced: their provenance would fingerprint whole row
  // ranges, whose composition is a scheduling accident; a request's bits
  // are recorded below instead.
  core::EvalContext dense = ctx;
  dense.pool = nullptr;
  dense.recorder = nullptr;
  const auto row_of = [](dl::Matrix& m, std::size_t r) {
    const auto cols = static_cast<std::size_t>(m.size(1));
    return std::span<float>(m.data().data() + r * cols, cols);
  };
  // Requests [begin, end) in two phases. Per row: the fault hook, the
  // width check, and the request's features and two neighbour means
  // (raw features for layer 1, cached activations for layer 2) into row
  // r of three matrices; a throw fails that row only. Then the rows as
  // matrices through the training layers' dense half. Every dense kernel
  // streams each row on its own, so a row's bits cannot depend on its
  // range-mates; a failed row rides along and its output is dropped.
  const auto run_rows = [&](std::size_t begin, std::size_t end) {
    if (begin == end) return;
    const auto rows = static_cast<std::int64_t>(end - begin);
    dl::Matrix x(tensor::Shape{rows, f}, 0.0f);
    dl::Matrix neigh1(tensor::Shape{rows, f}, 0.0f);
    dl::Matrix neigh2(tensor::Shape{rows, h}, 0.0f);
    for (std::size_t i = begin; i < end; ++i) {
      const Request& request = batch[i];
      try {
        if (fault_hook) fault_hook(request);
        if (static_cast<std::int64_t>(request.features.size()) != f) {
          throw std::invalid_argument("batch_forward: feature width mismatch");
        }
        std::copy(request.features.begin(), request.features.end(),
                  row_of(x, i - begin).begin());
        dl::mean_rows_into(features_, request.neighbors,
                           row_of(neigh1, i - begin), ctx);
        dl::mean_rows_into(h1_, request.neighbors, row_of(neigh2, i - begin),
                           ctx);
      } catch (...) {
        outcomes[i].error = std::current_exception();
      }
    }
    const dl::Matrix a1 = dl::relu(model_.conv1.combine(x, neigh1, dense));
    dl::Matrix log_probs =
        dl::log_softmax_rows(model_.conv2.combine(a1, neigh2, dense));
    for (std::size_t i = begin; i < end; ++i) {
      if (outcomes[i].error != nullptr) continue;
      const std::span<float> row = row_of(log_probs, i - begin);
      outcomes[i].log_probs.assign(row.begin(), row.end());
    }
  };
  if (ctx.pool != nullptr && ctx.pool->size() > 1 && batch.size() > 1) {
    // Row-range dispatch; the range boundaries cannot move a row's bits.
    // parallel_for joins every chunk before rethrowing a chunk failure,
    // so `outcomes` never outlives a running worker (the join-and-rethrow
    // contract the server's promise accounting relies on).
    ctx.pool->parallel_for(batch.size(),
                           [&](std::size_t begin, std::size_t end,
                               std::size_t) { run_rows(begin, end); });
  } else {
    run_rows(0, batch.size());
  }

  if (ctx.recorder != nullptr) {
    // One record per request, emitted from the calling thread in batch
    // order; the canonical provenance sort keys on the request id, so
    // two runs that served the same request set emit identical streams
    // however the batches were composed.
    const std::string spec = fp::to_string(ctx.reduction_in_effect());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const bool failed = outcomes[i].error != nullptr;
      ctx.recorder->provenance(
          {"serve.request", failed ? "error" : "result",
           static_cast<std::int64_t>(batch[i].id), -1, spec,
           failed ? 0 : row_bits(outcomes[i].log_probs),
           static_cast<std::uint64_t>(outcomes[i].log_probs.size())});
    }
  }
  return outcomes;
}

Request InferenceSession::deployed_request(const dl::Dataset& dataset,
                                           std::int64_t node,
                                           std::uint64_t id) {
  if (node < 0 || node >= dataset.num_nodes()) {
    throw std::out_of_range("deployed_request: node out of range");
  }
  Request request;
  request.id = id;
  const std::int64_t f = dataset.features.size(1);
  request.features.resize(static_cast<std::size_t>(f));
  for (std::int64_t j = 0; j < f; ++j) {
    request.features[static_cast<std::size_t>(j)] =
        dataset.features.flat(node * f + j);
  }
  // The node's in-neighbours in edge order: the row mean_aggregate folds
  // for it, so the request aggregates the same stream.
  const auto neighbors = dataset.graph.in_adjacency().of(node);
  request.neighbors.assign(neighbors.begin(), neighbors.end());
  return request;
}

}  // namespace fpna::serve
