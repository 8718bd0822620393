// CSR similarity graph — the "nearest neighbor graph (G, E)" of Section 6.
//
// The paper builds a 10-NN graph with ScaNN, then symmetrizes it so the
// distributed bounding/scoring joins can treat edges as undirected (Section 5
// requires a symmetric graph); average degree becomes ~15-16. This module
// stores the symmetrized graph in CSR form: edge weights are the cosine
// similarities s(v1, v2) >= 0 used in the pairwise submodular objective.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace subsel::graph {

using NodeId = std::int64_t;

struct Edge {
  NodeId neighbor = 0;
  float weight = 0.0f;

  friend bool operator==(const Edge&, const Edge&) = default;
};

/// One node's directed adjacency list prior to symmetrization.
struct NeighborList {
  std::vector<Edge> edges;
};

class SimilarityGraph {
 public:
  SimilarityGraph() = default;

  /// Builds a CSR graph from per-node adjacency lists. Every list must contain
  /// unique neighbor ids in [0, lists.size()) and no self loops; weights must
  /// be non-negative (required for submodularity, Section 3).
  static SimilarityGraph from_lists(const std::vector<NeighborList>& lists);

  /// Returns the symmetrized version of this graph: edge (a,b) exists iff it
  /// exists in either direction in the input; weight is the max of the
  /// directions present (they coincide for metric similarities). O(E): a
  /// counting-sort transpose, then one linear merge of each node's forward
  /// and reverse rows straight into the output CSR.
  SimilarityGraph symmetrized() const;

  std::size_t num_nodes() const noexcept {
    return offsets_.empty() ? 0 : offsets_.size() - 1;
  }
  std::size_t num_edges() const noexcept { return edges_.size(); }

  std::span<const Edge> neighbors(NodeId v) const noexcept {
    const auto begin = static_cast<std::size_t>(offsets_[static_cast<std::size_t>(v)]);
    const auto end = static_cast<std::size_t>(offsets_[static_cast<std::size_t>(v) + 1]);
    return {edges_.data() + begin, end - begin};
  }

  std::size_t degree(NodeId v) const noexcept { return neighbors(v).size(); }

  double average_degree() const noexcept {
    return num_nodes() == 0 ? 0.0
                            : static_cast<double>(num_edges()) /
                                  static_cast<double>(num_nodes());
  }

  std::size_t min_degree() const;
  std::size_t max_degree() const;

  /// True if for every edge (a,b) the reverse edge (b,a) exists with the same
  /// weight. The distributed (Section 5) implementations require this.
  bool is_symmetric() const;

  /// Sum of s(a,b) over unordered neighbor pairs {a,b}; the pairwise penalty
  /// of selecting the whole ground set.
  double total_edge_weight() const;

  std::size_t byte_size() const noexcept {
    return offsets_.size() * sizeof(std::int64_t) + edges_.size() * sizeof(Edge);
  }

  void save(const std::string& path) const;
  /// Reads a graph written by save(). Throws std::runtime_error naming the
  /// path for a bad magic or version, or for arrays that break the CSR
  /// invariant from_lists enforces (offsets from 0 to num_edges() that never
  /// decrease; per row, ids in [0, num_nodes()) strictly ascending with no
  /// self loop; non-negative weights).
  static SimilarityGraph load(const std::string& path);

 private:
  std::vector<std::int64_t> offsets_;  // size num_nodes()+1
  std::vector<Edge> edges_;            // sorted by neighbor id within each node
};

}  // namespace subsel::graph
