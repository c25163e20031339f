#include "fpna/dl/graph.hpp"

#include <stdexcept>

namespace fpna::dl {

namespace {

/// Stable counting sort of the edges by `key`: node v's run holds
/// value[e] for the edges with key[e] == v, in ascending e.
Adjacency group_edges(std::int64_t num_nodes,
                      const std::vector<std::int64_t>& key,
                      const std::vector<std::int64_t>& value) {
  Adjacency adj;
  adj.offsets.assign(static_cast<std::size_t>(num_nodes) + 1, 0);
  for (const std::int64_t v : key) {
    ++adj.offsets[static_cast<std::size_t>(v) + 1];
  }
  for (std::size_t v = 0; v < static_cast<std::size_t>(num_nodes); ++v) {
    adj.offsets[v + 1] += adj.offsets[v];
  }
  adj.neighbors.resize(key.size());
  std::vector<std::int64_t> fill(adj.offsets.begin(), adj.offsets.end() - 1);
  for (std::size_t e = 0; e < key.size(); ++e) {
    adj.neighbors[static_cast<std::size_t>(
        fill[static_cast<std::size_t>(key[e])]++)] = value[e];
  }
  return adj;
}

}  // namespace

Graph::Graph(std::int64_t num_nodes)
    : num_nodes_(num_nodes), groupings_(std::make_shared<Groupings>()) {
  if (num_nodes < 0) throw std::invalid_argument("Graph: negative node count");
}

void Graph::add_edge(std::int64_t u, std::int64_t v) {
  if (u < 0 || u >= num_nodes_ || v < 0 || v >= num_nodes_) {
    throw std::out_of_range("Graph::add_edge: endpoint out of range");
  }
  edge_src_.push_back(u);
  edge_dst_.push_back(v);
  groupings_ = std::make_shared<Groupings>();
}

void Graph::require_groupings() const {
  if (groupings_ == nullptr) {
    throw std::logic_error("Graph: grouping of a moved-from graph");
  }
}

const Adjacency& Graph::in_adjacency() const {
  require_groupings();
  std::call_once(groupings_->in_once, [&] {
    groupings_->in = group_edges(num_nodes_, edge_dst_, edge_src_);
  });
  return groupings_->in;
}

const Adjacency& Graph::out_adjacency() const {
  require_groupings();
  std::call_once(groupings_->out_once, [&] {
    groupings_->out = group_edges(num_nodes_, edge_src_, edge_dst_);
  });
  return groupings_->out;
}

std::vector<std::int64_t> Graph::in_degrees() const {
  std::vector<std::int64_t> degrees(static_cast<std::size_t>(num_nodes_), 0);
  for (const std::int64_t v : edge_dst_) {
    ++degrees[static_cast<std::size_t>(v)];
  }
  return degrees;
}

bool Graph::valid() const noexcept {
  if (edge_src_.size() != edge_dst_.size()) return false;
  for (std::size_t i = 0; i < edge_src_.size(); ++i) {
    if (edge_src_[i] < 0 || edge_src_[i] >= num_nodes_) return false;
    if (edge_dst_[i] < 0 || edge_dst_[i] >= num_nodes_) return false;
  }
  return true;
}

}  // namespace fpna::dl
