#pragma once
// Synthetic citation-network dataset generator, the stand-in for Cora
// (paper SV.B: 2708 publications, 5429 citation links, 1433-dimensional
// bag-of-words features, 7 classes). Cora itself is a fixed external
// file; the experiments only need a graph with the same shape statistics
// and learnable class structure, so we generate one deterministically
// from a seed:
//
//  * each class owns a bias subset of the vocabulary; a node draws most
//    of its ~9 active words from its class subset (learnable features);
//  * edges are homophilous (mostly intra-class), mimicking citations;
//  * features are row-normalised bag-of-words indicators.

#include <cstdint>
#include <vector>

#include "fpna/dl/graph.hpp"
#include "fpna/tensor/tensor.hpp"

namespace fpna::dl {

struct DatasetConfig {
  std::int64_t num_nodes = 2708;
  std::int64_t num_undirected_edges = 5429;
  std::int64_t num_features = 1433;
  std::int64_t num_classes = 7;
  std::int64_t words_per_node = 9;       // Cora's mean active features
  double intra_class_edge_prob = 0.8;    // homophily strength
  double train_fraction = 0.6;
  std::uint64_t seed = 20240805;

  /// Reduced-size configuration for fast default runs on small hosts;
  /// same shape family, ~5% of the full work.
  static DatasetConfig small();
  /// The paper-scale Cora-like configuration.
  static DatasetConfig cora();
};

struct Dataset {
  Graph graph;
  tensor::Tensor<float> features;       // [num_nodes, num_features]
  std::vector<std::int64_t> labels;     // [num_nodes], in [0, num_classes)
  std::vector<char> train_mask;         // 1 = training node
  std::int64_t num_classes = 0;

  std::int64_t num_nodes() const noexcept { return graph.num_nodes(); }
  std::int64_t num_features() const noexcept { return features.size(1); }
  std::int64_t train_count() const noexcept;
};

/// Deterministic pure function of the config (identical seeds give
/// bitwise-identical datasets - the experiments depend on this).
Dataset make_synthetic_citation_dataset(const DatasetConfig& config);

}  // namespace fpna::dl
