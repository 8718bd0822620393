#include "graph/similarity_graph.h"

#include <algorithm>
#include <span>
#include <stdexcept>

#include "common/serialize.h"

namespace subsel::graph {
namespace {
constexpr std::uint64_t kGraphMagic = 0x5355424752415048ULL;  // "SUBGRAPH"
constexpr std::uint32_t kGraphVersion = 1;

/// Throws std::runtime_error naming `path` unless offsets/edges hold the CSR
/// invariant from_lists builds: offsets run from 0 to |E| and never
/// decrease, each row's ids lie in [0, n), rise strictly and never name the
/// row itself, and weights are non-negative.
void check_loaded_csr(const std::vector<std::int64_t>& offsets,
                      const std::vector<Edge>& edges, const std::string& path) {
  const auto fail = [&path](const char* what) {
    throw std::runtime_error(std::string("SimilarityGraph::load: ") + what +
                             " in " + path);
  };
  if (offsets.empty()) {
    if (!edges.empty()) fail("edges without offsets");
    return;
  }
  if (offsets.front() != 0) fail("first offset is not 0");
  if (offsets.back() != static_cast<std::int64_t>(edges.size())) {
    fail("last offset is not the edge count");
  }
  const std::size_t n = offsets.size() - 1;
  for (std::size_t v = 0; v < n; ++v) {
    if (offsets[v + 1] < offsets[v]) fail("offsets decrease");
  }
  const auto num_ids = static_cast<NodeId>(n);
  for (std::size_t v = 0; v < n; ++v) {
    NodeId previous = -1;
    for (auto e = static_cast<std::size_t>(offsets[v]);
         e < static_cast<std::size_t>(offsets[v + 1]); ++e) {
      const Edge& edge = edges[e];
      if (edge.neighbor < 0 || edge.neighbor >= num_ids) {
        fail("neighbor id out of range");
      }
      if (edge.neighbor == static_cast<NodeId>(v)) fail("self loop");
      if (edge.neighbor <= previous) fail("neighbor ids not strictly ascending");
      if (edge.weight < 0.0f) fail("negative weight");
      previous = edge.neighbor;
    }
  }
}
}  // namespace

SimilarityGraph SimilarityGraph::from_lists(const std::vector<NeighborList>& lists) {
  SimilarityGraph graph;
  graph.offsets_.resize(lists.size() + 1, 0);
  std::size_t total = 0;
  for (std::size_t i = 0; i < lists.size(); ++i) {
    total += lists[i].edges.size();
    graph.offsets_[i + 1] = static_cast<std::int64_t>(total);
  }
  graph.edges_.reserve(total);
  const auto n = static_cast<NodeId>(lists.size());
  for (std::size_t i = 0; i < lists.size(); ++i) {
    std::vector<Edge> sorted = lists[i].edges;
    std::sort(sorted.begin(), sorted.end(),
              [](const Edge& a, const Edge& b) { return a.neighbor < b.neighbor; });
    for (std::size_t e = 0; e < sorted.size(); ++e) {
      const Edge& edge = sorted[e];
      if (edge.neighbor < 0 || edge.neighbor >= n) {
        throw std::invalid_argument("SimilarityGraph: neighbor id out of range");
      }
      if (edge.neighbor == static_cast<NodeId>(i)) {
        throw std::invalid_argument("SimilarityGraph: self loop");
      }
      if (e > 0 && sorted[e - 1].neighbor == edge.neighbor) {
        throw std::invalid_argument("SimilarityGraph: duplicate neighbor");
      }
      if (edge.weight < 0.0f) {
        throw std::invalid_argument("SimilarityGraph: negative weight");
      }
      graph.edges_.push_back(edge);
    }
  }
  return graph;
}

SimilarityGraph SimilarityGraph::symmetrized() const {
  const std::size_t n = num_nodes();

  // Transpose by a counting sort over the sources in ascending order, so each
  // reverse row comes out sorted by id, as each forward row is.
  std::vector<std::int64_t> reverse_offsets(n + 1, 0);
  for (const Edge& edge : edges_) {
    ++reverse_offsets[static_cast<std::size_t>(edge.neighbor) + 1];
  }
  for (std::size_t v = 0; v < n; ++v) reverse_offsets[v + 1] += reverse_offsets[v];
  std::vector<Edge> reverse_edges(static_cast<std::size_t>(reverse_offsets[n]));
  {
    std::vector<std::int64_t> next(reverse_offsets.begin(), reverse_offsets.end() - 1);
    for (std::size_t v = 0; v < n; ++v) {
      for (const Edge& edge : neighbors(static_cast<NodeId>(v))) {
        reverse_edges[static_cast<std::size_t>(
            next[static_cast<std::size_t>(edge.neighbor)]++)] =
            Edge{static_cast<NodeId>(v), edge.weight};
      }
    }
  }

  // Merges node v's forward and reverse rows in id order, keeping the larger
  // weight of an edge present in both, and hands each edge to emit.
  auto merge_row = [&](std::size_t v, auto&& emit) {
    const auto forward = neighbors(static_cast<NodeId>(v));
    const std::span<const Edge> reverse(
        reverse_edges.data() + reverse_offsets[v],
        static_cast<std::size_t>(reverse_offsets[v + 1] - reverse_offsets[v]));
    std::size_t f = 0, r = 0;
    while (f < forward.size() && r < reverse.size()) {
      if (forward[f].neighbor < reverse[r].neighbor) {
        emit(forward[f++]);
      } else if (reverse[r].neighbor < forward[f].neighbor) {
        emit(reverse[r++]);
      } else {
        emit(Edge{forward[f].neighbor, std::max(forward[f].weight, reverse[r].weight)});
        ++f;
        ++r;
      }
    }
    for (; f < forward.size(); ++f) emit(forward[f]);
    for (; r < reverse.size(); ++r) emit(reverse[r]);
  };

  // Two passes over the merge: one sizes the CSR rows, one fills them.
  SimilarityGraph graph;
  graph.offsets_.assign(n + 1, 0);
  for (std::size_t v = 0; v < n; ++v) {
    std::int64_t degree = 0;
    merge_row(v, [&degree](const Edge&) { ++degree; });
    graph.offsets_[v + 1] = graph.offsets_[v] + degree;
  }
  graph.edges_.resize(static_cast<std::size_t>(graph.offsets_[n]));
  for (std::size_t v = 0; v < n; ++v) {
    Edge* out = graph.edges_.data() + graph.offsets_[v];
    merge_row(v, [&out](const Edge& edge) { *out++ = edge; });
  }
  return graph;
}

std::size_t SimilarityGraph::min_degree() const {
  std::size_t best = num_edges();
  for (std::size_t v = 0; v < num_nodes(); ++v) {
    best = std::min(best, degree(static_cast<NodeId>(v)));
  }
  return num_nodes() == 0 ? 0 : best;
}

std::size_t SimilarityGraph::max_degree() const {
  std::size_t best = 0;
  for (std::size_t v = 0; v < num_nodes(); ++v) {
    best = std::max(best, degree(static_cast<NodeId>(v)));
  }
  return best;
}

bool SimilarityGraph::is_symmetric() const {
  for (std::size_t v = 0; v < num_nodes(); ++v) {
    for (const Edge& edge : neighbors(static_cast<NodeId>(v))) {
      const auto reverse = neighbors(edge.neighbor);
      const auto it = std::lower_bound(
          reverse.begin(), reverse.end(), static_cast<NodeId>(v),
          [](const Edge& e, NodeId id) { return e.neighbor < id; });
      if (it == reverse.end() || it->neighbor != static_cast<NodeId>(v) ||
          it->weight != edge.weight) {
        return false;
      }
    }
  }
  return true;
}

double SimilarityGraph::total_edge_weight() const {
  double sum = 0.0;
  for (const Edge& edge : edges_) sum += edge.weight;
  return sum / 2.0;  // every undirected edge is stored in both directions
}

void SimilarityGraph::save(const std::string& path) const {
  BinaryWriter writer(path);
  writer.write_pod(kGraphMagic);
  writer.write_pod(kGraphVersion);
  writer.write_vector(offsets_);
  writer.write_vector(edges_);
  if (!writer.ok()) throw std::runtime_error("SimilarityGraph::save failed: " + path);
}

SimilarityGraph SimilarityGraph::load(const std::string& path) {
  BinaryReader reader(path);
  if (reader.read_pod<std::uint64_t>() != kGraphMagic) {
    throw std::runtime_error("SimilarityGraph::load: bad magic in " + path);
  }
  if (reader.read_pod<std::uint32_t>() != kGraphVersion) {
    throw std::runtime_error("SimilarityGraph::load: bad version in " + path);
  }
  SimilarityGraph graph;
  graph.offsets_ = reader.read_vector<std::int64_t>();
  graph.edges_ = reader.read_vector<Edge>();
  check_loaded_csr(graph.offsets_, graph.edges_, path);
  return graph;
}

}  // namespace subsel::graph
