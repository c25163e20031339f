#pragma once
// Graph substrate for the GNN experiments (paper SV): edge-list storage
// plus the CSR groupings neighbour aggregation streams over. Undirected
// graphs store both edge directions so message passing is symmetric.

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

namespace fpna::dl {

/// CSR grouping of a graph's edges by one endpoint: node v's entries are
/// neighbors[offsets[v] .. offsets[v + 1]), the other endpoints of the
/// edges grouped under v, in ascending edge order - the order in which
/// index_add issues v's contributions.
struct Adjacency {
  std::vector<std::int64_t> offsets;    // [num_nodes + 1]
  std::vector<std::int64_t> neighbors;  // [num_edges]

  std::span<const std::int64_t> of(std::int64_t v) const {
    const auto i = static_cast<std::size_t>(v);
    return std::span<const std::int64_t>(neighbors).subspan(
        static_cast<std::size_t>(offsets[i]),
        static_cast<std::size_t>(offsets[i + 1] - offsets[i]));
  }
  std::int64_t degree(std::int64_t v) const {
    const auto i = static_cast<std::size_t>(v);
    return offsets[i + 1] - offsets[i];
  }
};

class Graph {
 public:
  explicit Graph(std::int64_t num_nodes = 0);

  std::int64_t num_nodes() const noexcept { return num_nodes_; }
  std::int64_t num_edges() const noexcept {
    return static_cast<std::int64_t>(edge_src_.size());
  }
  /// Directed message edges: messages flow edge_src()[i] -> edge_dst()[i].
  const std::vector<std::int64_t>& edge_src() const noexcept {
    return edge_src_;
  }
  const std::vector<std::int64_t>& edge_dst() const noexcept {
    return edge_dst_;
  }

  /// Adds the directed edge u -> v (bounds-checked).
  void add_edge(std::int64_t u, std::int64_t v);

  /// Adds both directions.
  void add_undirected_edge(std::int64_t u, std::int64_t v) {
    add_edge(u, v);
    add_edge(v, u);
  }

  /// In-neighbours grouped by destination (edge_src grouped by edge_dst):
  /// the forward aggregation's rows. Built once by a stable counting sort
  /// on first use and kept until the next add_edge; safe to call from
  /// several threads (not on a moved-from graph).
  const Adjacency& in_adjacency() const;
  /// Out-neighbours grouped by source (edge_dst grouped by edge_src): the
  /// aggregation backward's rows.
  const Adjacency& out_adjacency() const;

  /// Number of incoming edges per node (the mean-aggregation denominator).
  std::vector<std::int64_t> in_degrees() const;

  /// Structural validation: all endpoints in range.
  bool valid() const noexcept;

 private:
  /// The groupings of one edge list. Copies of a graph share it (their
  /// edges are equal); add_edge gives the graph a fresh one.
  struct Groupings {
    std::once_flag in_once, out_once;
    Adjacency in, out;
  };

  void require_groupings() const;

  std::int64_t num_nodes_ = 0;
  std::vector<std::int64_t> edge_src_;
  std::vector<std::int64_t> edge_dst_;
  std::shared_ptr<Groupings> groupings_;
};

}  // namespace fpna::dl
