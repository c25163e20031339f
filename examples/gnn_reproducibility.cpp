// Scenario: a scientist trains the same GraphSAGE model twice on the same
// machine with the same seed and gets two different models (the paper's
// SV). This example walks the full workflow:
//
//   * train a population of models with non-deterministic aggregation and
//     show every one is unique despite identical initial weights;
//   * show the models nevertheless agree on most predictions - but not
//     all, which is exactly what breaks certification;
//   * flip the determinism switch and recover bitwise-reproducible
//     training.

#include <iostream>
#include <set>

#include "fpna/core/harness.hpp"
#include "fpna/core/metrics.hpp"
#include "fpna/dl/dataset.hpp"
#include "fpna/dl/trainer.hpp"
#include "fpna/util/table.hpp"

int main() {
  using namespace fpna;

  auto config = dl::DatasetConfig::small();
  const auto ds = dl::make_synthetic_citation_dataset(config);
  std::cout << "dataset: " << ds.num_nodes() << " nodes, "
            << ds.graph.num_edges() << " directed edges, "
            << ds.num_features() << " features, " << ds.num_classes
            << " classes\n\n";

  dl::TrainConfig train_config;
  train_config.epochs = 10;
  train_config.hidden = 16;

  // ------------------------------------------------------------------
  // 1. Non-deterministic training: every model is unique.
  // ------------------------------------------------------------------
  std::cout << "== 1. ND training: " << 10
            << " runs, identical seed and inputs ==\n";
  train_config.deterministic = false;
  std::vector<dl::TrainResult> population;
  for (std::uint64_t r = 0; r < 10; ++r) {
    core::RunContext run(42, r);
    population.push_back(dl::train(ds, train_config, run));
  }
  std::vector<std::vector<double>> weight_sets;
  for (const auto& result : population) {
    weight_sets.push_back(result.final_weights);
  }
  std::cout << "  unique weight vectors: "
            << core::count_unique_outputs(weight_sets) << " / "
            << weight_sets.size() << "\n";
  std::cout << "  final-epoch losses: ";
  for (const auto& result : population) {
    std::cout << util::fixed(result.epoch_losses.back(), 4) << " ";
  }
  std::cout << "\n  (similar losses, different weights - convergence hides "
               "non-reproducibility)\n\n";

  // ------------------------------------------------------------------
  // 2. Prediction disagreement between "the same" model trained twice.
  // ------------------------------------------------------------------
  std::cout << "== 2. Do the unique models predict the same labels? ==\n";
  const core::EvalContext det_ctx;
  const auto preds_a =
      dl::argmax_rows(dl::infer(population[0].model, ds, det_ctx));
  std::size_t worst_disagreement = 0;
  for (std::size_t m = 1; m < population.size(); ++m) {
    const auto preds_b =
        dl::argmax_rows(dl::infer(population[m].model, ds, det_ctx));
    std::size_t differ = 0;
    for (std::size_t i = 0; i < preds_a.size(); ++i) {
      differ += preds_a[i] != preds_b[i];
    }
    worst_disagreement = std::max(worst_disagreement, differ);
  }
  std::cout << "  worst label disagreement vs run 0: " << worst_disagreement
            << " / " << preds_a.size() << " nodes\n";
  // Raw outputs (log-probabilities) always differ even when argmax labels
  // agree - and certification regimes hash the *outputs*, not the labels.
  const auto out_a = dl::infer(population[0].model, ds, det_ctx);
  const auto out_b = dl::infer(population[1].model, ds, det_ctx);
  std::cout << "  fraction of output log-probabilities differing bitwise "
               "between two runs: "
            << core::vc(out_a.data(), out_b.data()) << "\n"
            << "  (at this small scale the labels may still agree, but the "
               "model artefact and its outputs are different on every "
               "training - hash-based certification and A/B debugging are "
               "already broken; at production scale the paper reports "
               "prediction-level divergence too)\n\n";

  // ------------------------------------------------------------------
  // 3. Deterministic training: bitwise reproducible.
  // ------------------------------------------------------------------
  std::cout << "== 3. Deterministic training ==\n";
  train_config.deterministic = true;
  const auto kernel = [&](core::RunContext& run) {
    return dl::train(ds, train_config, run).final_weights;
  };
  const auto cert = core::certify_deterministic(kernel, 4, 99);
  std::cout << "  4 trainings bitwise identical: "
            << (cert.deterministic ? "yes" : "NO") << "\n"
            << "  (the only changed line: "
               "DeterminismContext-equivalent switch on the aggregation "
               "kernels)\n";
  return 0;
}
