#include "fpna/dl/dataset.hpp"

#include <algorithm>
#include <cmath>
#include <set>
#include <stdexcept>
#include <utility>

#include "fpna/util/permutation.hpp"
#include "fpna/util/rng.hpp"

namespace fpna::dl {

DatasetConfig DatasetConfig::small() {
  DatasetConfig c;
  c.num_nodes = 600;
  c.num_undirected_edges = 1200;
  c.num_features = 128;
  c.num_classes = 7;
  c.words_per_node = 6;
  return c;
}

DatasetConfig DatasetConfig::cora() { return DatasetConfig{}; }

std::int64_t Dataset::train_count() const noexcept {
  std::int64_t count = 0;
  for (const char m : train_mask) count += m;
  return count;
}

Dataset make_synthetic_citation_dataset(const DatasetConfig& config) {
  if (config.num_nodes < 2 || config.num_classes < 2 ||
      config.num_features < config.num_classes) {
    throw std::invalid_argument(
        "make_synthetic_citation_dataset: degenerate config");
  }

  util::Xoshiro256pp rng(config.seed);
  Dataset ds;
  ds.num_classes = config.num_classes;
  ds.graph = Graph(config.num_nodes);

  // Labels: round-robin-ish random assignment, every class non-empty.
  const util::UniformInt class_dist(0, config.num_classes - 1);
  ds.labels.resize(static_cast<std::size_t>(config.num_nodes));
  for (std::int64_t v = 0; v < config.num_nodes; ++v) {
    ds.labels[static_cast<std::size_t>(v)] =
        v < config.num_classes ? v : class_dist(rng);
  }

  // Vocabulary partition: class c owns the contiguous word range
  // [c*W/C, (c+1)*W/C); nodes draw ~80% of their words from their class
  // range, the rest anywhere (noise).
  const std::int64_t words_per_class =
      config.num_features / config.num_classes;
  ds.features = tensor::Tensor<float>(
      tensor::Shape{config.num_nodes, config.num_features}, 0.0f);
  const util::UniformInt any_word(0, config.num_features - 1);
  for (std::int64_t v = 0; v < config.num_nodes; ++v) {
    const std::int64_t c = ds.labels[static_cast<std::size_t>(v)];
    const std::int64_t lo = c * words_per_class;
    const util::UniformInt class_word(lo, lo + words_per_class - 1);
    std::set<std::int64_t> words;
    while (static_cast<std::int64_t>(words.size()) < config.words_per_node) {
      const bool in_class = util::canonical(rng) < 0.8;
      words.insert(in_class ? class_word(rng) : any_word(rng));
    }
    // Row-normalised indicators.
    const float value =
        1.0f / std::sqrt(static_cast<float>(config.words_per_node));
    for (const std::int64_t w : words) ds.features.at({v, w}) = value;
  }

  // Homophilous citation edges: draw endpoint u, then v from the same
  // class with probability intra_class_edge_prob, else uniformly. Bucket
  // nodes by class for the intra-class draws.
  std::vector<std::vector<std::int64_t>> by_class(
      static_cast<std::size_t>(config.num_classes));
  for (std::int64_t v = 0; v < config.num_nodes; ++v) {
    by_class[static_cast<std::size_t>(ds.labels[static_cast<std::size_t>(v)])]
        .push_back(v);
  }
  const util::UniformInt node_dist(0, config.num_nodes - 1);
  std::set<std::pair<std::int64_t, std::int64_t>> seen;
  std::int64_t added = 0;
  while (added < config.num_undirected_edges) {
    const std::int64_t u = node_dist(rng);
    std::int64_t v;
    if (util::canonical(rng) < config.intra_class_edge_prob) {
      const auto& bucket = by_class[static_cast<std::size_t>(
          ds.labels[static_cast<std::size_t>(u)])];
      const util::UniformInt pick(0,
                                  static_cast<std::int64_t>(bucket.size()) - 1);
      v = bucket[static_cast<std::size_t>(pick(rng))];
    } else {
      v = node_dist(rng);
    }
    if (u == v) continue;
    const auto key = std::minmax(u, v);
    if (!seen.insert({key.first, key.second}).second) continue;
    ds.graph.add_undirected_edge(u, v);
    ++added;
  }

  // Train mask: the first train_fraction of a seeded shuffle.
  std::vector<std::int64_t> order(static_cast<std::size_t>(config.num_nodes));
  for (std::int64_t v = 0; v < config.num_nodes; ++v) {
    order[static_cast<std::size_t>(v)] = v;
  }
  util::shuffle(order, rng);
  ds.train_mask.assign(static_cast<std::size_t>(config.num_nodes), 0);
  const auto train_count = static_cast<std::int64_t>(
      config.train_fraction * static_cast<double>(config.num_nodes));
  for (std::int64_t i = 0; i < train_count; ++i) {
    ds.train_mask[static_cast<std::size_t>(order[static_cast<std::size_t>(i)])] =
        1;
  }
  return ds;
}

}  // namespace fpna::dl
