#include "graph/similarity_graph.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "../testing/property.h"
#include "../testing/symmetrize_reference.h"
#include "../testing/temp_dir.h"
#include "common/rng.h"
#include "common/serialize.h"

namespace subsel::graph {
namespace {

using testing::reference_symmetrized;

std::vector<NeighborList> triangle_lists() {
  // 0 -- 1 (0.5), 1 -- 2 (0.25), directed: only forward edges given.
  std::vector<NeighborList> lists(3);
  lists[0].edges = {{1, 0.5f}};
  lists[1].edges = {{2, 0.25f}};
  return lists;
}

TEST(SimilarityGraph, FromListsBuildsCsr) {
  const auto graph = SimilarityGraph::from_lists(triangle_lists());
  EXPECT_EQ(graph.num_nodes(), 3u);
  EXPECT_EQ(graph.num_edges(), 2u);
  ASSERT_EQ(graph.degree(0), 1u);
  EXPECT_EQ(graph.neighbors(0)[0].neighbor, 1);
  EXPECT_FLOAT_EQ(graph.neighbors(0)[0].weight, 0.5f);
  EXPECT_EQ(graph.degree(2), 0u);
}

TEST(SimilarityGraph, NeighborsSortedById) {
  std::vector<NeighborList> lists(4);
  lists[0].edges = {{3, 0.1f}, {1, 0.2f}, {2, 0.3f}};
  const auto graph = SimilarityGraph::from_lists(lists);
  const auto neighbors = graph.neighbors(0);
  ASSERT_EQ(neighbors.size(), 3u);
  EXPECT_EQ(neighbors[0].neighbor, 1);
  EXPECT_EQ(neighbors[1].neighbor, 2);
  EXPECT_EQ(neighbors[2].neighbor, 3);
}

TEST(SimilarityGraph, RejectsSelfLoop) {
  std::vector<NeighborList> lists(2);
  lists[0].edges = {{0, 0.5f}};
  EXPECT_THROW(SimilarityGraph::from_lists(lists), std::invalid_argument);
}

TEST(SimilarityGraph, RejectsDuplicateNeighbor) {
  std::vector<NeighborList> lists(2);
  lists[0].edges = {{1, 0.5f}, {1, 0.4f}};
  EXPECT_THROW(SimilarityGraph::from_lists(lists), std::invalid_argument);
}

TEST(SimilarityGraph, RejectsOutOfRangeNeighbor) {
  std::vector<NeighborList> lists(2);
  lists[0].edges = {{5, 0.5f}};
  EXPECT_THROW(SimilarityGraph::from_lists(lists), std::invalid_argument);
}

TEST(SimilarityGraph, RejectsNegativeWeight) {
  std::vector<NeighborList> lists(2);
  lists[0].edges = {{1, -0.5f}};
  EXPECT_THROW(SimilarityGraph::from_lists(lists), std::invalid_argument);
}

TEST(SimilarityGraph, SymmetrizeAddsReverseEdges) {
  const auto graph = SimilarityGraph::from_lists(triangle_lists());
  EXPECT_FALSE(graph.is_symmetric());
  const auto sym = graph.symmetrized();
  EXPECT_TRUE(sym.is_symmetric());
  EXPECT_EQ(sym.num_edges(), 4u);  // both directions of both edges
  ASSERT_EQ(sym.degree(1), 2u);
  EXPECT_EQ(sym.neighbors(1)[0].neighbor, 0);
  EXPECT_FLOAT_EQ(sym.neighbors(1)[0].weight, 0.5f);
}

TEST(SimilarityGraph, SymmetrizeKeepsMaxWeightOfDirections) {
  std::vector<NeighborList> lists(2);
  lists[0].edges = {{1, 0.5f}};
  lists[1].edges = {{0, 0.9f}};
  const auto sym = SimilarityGraph::from_lists(lists).symmetrized();
  EXPECT_FLOAT_EQ(sym.neighbors(0)[0].weight, 0.9f);
  EXPECT_FLOAT_EQ(sym.neighbors(1)[0].weight, 0.9f);
  EXPECT_TRUE(sym.is_symmetric());
}

TEST(SimilarityGraph, SymmetrizeIsIdempotent) {
  const auto sym = SimilarityGraph::from_lists(triangle_lists()).symmetrized();
  const auto sym2 = sym.symmetrized();
  EXPECT_EQ(sym2.num_edges(), sym.num_edges());
  EXPECT_TRUE(sym2.is_symmetric());
}

TEST(SimilarityGraph, DegreeStatistics) {
  const auto sym = SimilarityGraph::from_lists(triangle_lists()).symmetrized();
  EXPECT_EQ(sym.min_degree(), 1u);  // nodes 0 and 2
  EXPECT_EQ(sym.max_degree(), 2u);  // node 1
  EXPECT_DOUBLE_EQ(sym.average_degree(), 4.0 / 3.0);
}

TEST(SimilarityGraph, TotalEdgeWeightCountsUnorderedPairsOnce) {
  const auto sym = SimilarityGraph::from_lists(triangle_lists()).symmetrized();
  EXPECT_NEAR(sym.total_edge_weight(), 0.75, 1e-9);
}

TEST(SimilarityGraph, SaveLoadRoundTrip) {
  const auto dir = testing::process_temp_path("subsel_graph_test");
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "g.bin").string();
  const auto sym = SimilarityGraph::from_lists(triangle_lists()).symmetrized();
  sym.save(path);
  const auto loaded = SimilarityGraph::load(path);
  EXPECT_EQ(loaded.num_nodes(), sym.num_nodes());
  EXPECT_EQ(loaded.num_edges(), sym.num_edges());
  for (std::size_t v = 0; v < sym.num_nodes(); ++v) {
    const auto a = sym.neighbors(static_cast<NodeId>(v));
    const auto b = loaded.neighbors(static_cast<NodeId>(v));
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t e = 0; e < a.size(); ++e) EXPECT_EQ(a[e], b[e]);
  }
  std::filesystem::remove_all(dir);
}

TEST(SimilarityGraph, EmptyGraph) {
  const auto graph = SimilarityGraph::from_lists({});
  EXPECT_EQ(graph.num_nodes(), 0u);
  EXPECT_EQ(graph.num_edges(), 0u);
  EXPECT_TRUE(graph.is_symmetric());
  EXPECT_EQ(graph.average_degree(), 0.0);
}

// ---- symmetrized() against the sort-based reference ----------------------

std::uint32_t bits(float value) { return std::bit_cast<std::uint32_t>(value); }

/// Where two graphs differ, edge for edge with weight bits; nullopt if equal.
std::optional<std::string> graph_difference(const SimilarityGraph& got,
                                            const SimilarityGraph& want) {
  if (got.num_nodes() != want.num_nodes()) {
    return "nodes " + std::to_string(got.num_nodes()) + " vs " +
           std::to_string(want.num_nodes());
  }
  if (got.num_edges() != want.num_edges()) {
    return "edges " + std::to_string(got.num_edges()) + " vs " +
           std::to_string(want.num_edges());
  }
  for (std::size_t v = 0; v < got.num_nodes(); ++v) {
    const auto a = got.neighbors(static_cast<NodeId>(v));
    const auto b = want.neighbors(static_cast<NodeId>(v));
    if (a.size() != b.size()) return "degree of node " + std::to_string(v);
    for (std::size_t e = 0; e < a.size(); ++e) {
      if (a[e].neighbor != b[e].neighbor || bits(a[e].weight) != bits(b[e].weight)) {
        return "node " + std::to_string(v) + " edge " + std::to_string(e);
      }
    }
  }
  return std::nullopt;
}

bool has_edge(const std::vector<NeighborList>& lists, std::size_t from, NodeId to) {
  return std::any_of(lists[from].edges.begin(), lists[from].edges.end(),
                     [to](const Edge& e) { return e.neighbor == to; });
}

/// A random directed graph: about a fifth of the nodes have no out-edges (so
/// some are isolated and others are reached one way only), weights lie in
/// [0, 1) with some exact zeros, and about a third of the edges are answered
/// by a reverse edge with its own weight.
SimilarityGraph random_directed_graph(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<NeighborList> lists(n);
  auto weight = [&rng] {
    return rng.bernoulli(0.05) ? 0.0f : static_cast<float>(rng.uniform());
  };
  const std::size_t max_out =
      n < 2 ? 0 : 1 + rng.uniform_index(std::min<std::size_t>(n - 1, 12));
  for (std::size_t v = 0; v < n; ++v) {
    if (max_out == 0 || rng.bernoulli(0.2)) continue;
    const std::size_t out = rng.uniform_index(max_out + 1);
    for (std::size_t e = 0; e < out; ++e) {
      const auto u = static_cast<NodeId>(rng.uniform_index(n));
      if (u == static_cast<NodeId>(v) || has_edge(lists, v, u)) continue;
      lists[v].edges.push_back(Edge{u, weight()});
      if (rng.bernoulli(0.3) && !has_edge(lists, static_cast<std::size_t>(u),
                                          static_cast<NodeId>(v))) {
        lists[static_cast<std::size_t>(u)].edges.push_back(
            Edge{static_cast<NodeId>(v), weight()});
      }
    }
  }
  return SimilarityGraph::from_lists(lists);
}

TEST(SymmetrizeReference, MatchesOnRandomDirectedGraphs) {
  std::size_t isolated = 0, one_way = 0, two_way_unequal = 0;
  testing::check_property(
      "symmetrized == sort-based reference", 200,
      [&](std::uint64_t seed, double scale) -> std::optional<std::string> {
        const SimilarityGraph graph =
            random_directed_graph(testing::scaled(300, scale, 2), seed);
        const SimilarityGraph sym = graph.symmetrized();
        if (auto diff = graph_difference(sym, reference_symmetrized(graph))) return diff;
        if (!sym.is_symmetric()) return std::string("not symmetric");
        for (std::size_t v = 0; v < graph.num_nodes(); ++v) {
          if (sym.degree(static_cast<NodeId>(v)) == 0) ++isolated;
          for (const Edge& e : graph.neighbors(static_cast<NodeId>(v))) {
            const auto back = graph.neighbors(e.neighbor);
            const auto it = std::find_if(back.begin(), back.end(), [v](const Edge& b) {
              return b.neighbor == static_cast<NodeId>(v);
            });
            if (it == back.end()) {
              ++one_way;
            } else if (bits(it->weight) != bits(e.weight)) {
              ++two_way_unequal;
            }
          }
        }
        return std::nullopt;
      });
  // The sweep must cover every shape the merge distinguishes.
  EXPECT_GT(isolated, 0u);
  EXPECT_GT(one_way, 0u);
  EXPECT_GT(two_way_unequal, 0u);
}

TEST(SymmetrizeReference, MatchesOnEmptyAndSingleNodeGraphs) {
  for (const SimilarityGraph& graph :
       {SimilarityGraph(), SimilarityGraph::from_lists({}),
        SimilarityGraph::from_lists(std::vector<NeighborList>(1))}) {
    const SimilarityGraph sym = graph.symmetrized();
    EXPECT_FALSE(graph_difference(sym, reference_symmetrized(graph)).has_value());
    EXPECT_EQ(sym.num_nodes(), graph.num_nodes());
    EXPECT_EQ(sym.num_edges(), 0u);
  }
}

TEST(SymmetrizeReference, MatchesWithAHubAdjacentToEveryNode) {
  // The hub sits mid-range, so its reverse row interleaves with its forward
  // row; odd nodes answer it with a weight of their own, and a chain adds
  // edges the hub does not see.
  Rng rng(91);
  const std::size_t n = 301;
  const std::size_t hub = n / 2;
  std::vector<NeighborList> lists(n);
  auto add = [&](std::size_t from, std::size_t to) {
    lists[from].edges.push_back(
        Edge{static_cast<NodeId>(to), static_cast<float>(rng.uniform())});
  };
  for (std::size_t v = 0; v < n; ++v) {
    if (v == hub) continue;
    add(hub, v);
    if (v % 2 == 1) add(v, hub);
    if (v + 1 < n && v + 1 != hub) add(v, v + 1);
  }
  const SimilarityGraph graph = SimilarityGraph::from_lists(lists);
  const SimilarityGraph sym = graph.symmetrized();
  const auto diff = graph_difference(sym, reference_symmetrized(graph));
  EXPECT_FALSE(diff.has_value()) << diff.value_or("");
  EXPECT_EQ(sym.degree(static_cast<NodeId>(hub)), n - 1);
  EXPECT_TRUE(sym.is_symmetric());
}

TEST(SymmetrizeReference, SymmetricInputComesBackBitForBit) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const SimilarityGraph sym = random_directed_graph(200, seed).symmetrized();
    const SimilarityGraph again = sym.symmetrized();
    const auto diff = graph_difference(again, sym);
    EXPECT_FALSE(diff.has_value()) << "seed " << seed << ": " << diff.value_or("");
    EXPECT_FALSE(graph_difference(again, reference_symmetrized(sym)).has_value());
  }
}

/// Writes a graph file in SimilarityGraph::save's layout from raw CSR arrays,
/// so a test can hold rows that from_lists would never build.
void write_graph_file(const std::string& path, const std::vector<std::int64_t>& offsets,
                      const std::vector<Edge>& edges) {
  BinaryWriter writer(path);
  writer.write_pod(std::uint64_t{0x5355424752415048ULL});  // "SUBGRAPH"
  writer.write_pod(std::uint32_t{1});
  writer.write_vector(offsets);
  writer.write_vector(edges);
  ASSERT_TRUE(writer.ok());
}

class GraphLoadErrors : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = testing::process_temp_path("subsel_graph_load_test");
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  SimilarityGraph load_csr(const std::vector<std::int64_t>& offsets,
                           const std::vector<Edge>& edges) {
    const std::string path = (dir_ / "g.bin").string();
    write_graph_file(path, offsets, edges);
    return SimilarityGraph::load(path);
  }

  /// Loads a 3-node graph whose node 0 has `row` and the others no edges.
  SimilarityGraph load_with_row(const std::vector<Edge>& row) {
    const auto size = static_cast<std::int64_t>(row.size());
    return load_csr({0, size, size, size}, row);
  }

  std::filesystem::path dir_;
};

TEST_F(GraphLoadErrors, HandWrittenWellFormedRowSymmetrizes) {
  const SimilarityGraph sym = load_with_row({{1, 0.5f}, {2, 0.25f}}).symmetrized();
  EXPECT_EQ(sym.num_edges(), 4u);
  EXPECT_TRUE(sym.is_symmetric());
  EXPECT_EQ(load_csr({}, {}).num_nodes(), 0u);  // what a default graph saves
}

TEST_F(GraphLoadErrors, RowOutOfAscendingOrderThrows) {
  EXPECT_THROW(load_with_row({{2, 0.5f}, {1, 0.5f}}), std::runtime_error);
  // A repeated id is out of strict order too.
  EXPECT_THROW(load_with_row({{1, 0.5f}, {1, 0.4f}}), std::runtime_error);
}

TEST_F(GraphLoadErrors, NeighborIdOutOfRangeThrows) {
  EXPECT_THROW(load_with_row({{3, 0.5f}}), std::runtime_error);
  EXPECT_THROW(load_with_row({{-1, 0.5f}}), std::runtime_error);
  EXPECT_THROW(load_with_row({{NodeId{1} << 40, 0.5f}}), std::runtime_error);
}

TEST_F(GraphLoadErrors, SelfLoopThrows) {
  EXPECT_THROW(load_with_row({{0, 0.5f}}), std::runtime_error);
}

TEST_F(GraphLoadErrors, NegativeWeightThrows) {
  EXPECT_THROW(load_with_row({{1, -0.5f}}), std::runtime_error);
}

TEST_F(GraphLoadErrors, NonzeroFirstOffsetThrows) {
  EXPECT_THROW(load_csr({1, 1, 1, 1}, {{1, 0.5f}}), std::runtime_error);
}

TEST_F(GraphLoadErrors, DecreasingOffsetThrows) {
  EXPECT_THROW(load_csr({0, 2, 1, 2}, {{1, 0.5f}, {2, 0.5f}}), std::runtime_error);
}

TEST_F(GraphLoadErrors, OffsetOfTenToTheTwelfthThrows) {
  EXPECT_THROW(load_csr({0, 1'000'000'000'000, 2, 2}, {{1, 0.5f}, {2, 0.5f}}),
               std::runtime_error);
}

TEST_F(GraphLoadErrors, LastOffsetOtherThanEdgeCountThrows) {
  EXPECT_THROW(load_csr({0, 1, 1, 1}, {{1, 0.5f}, {2, 0.5f}}), std::runtime_error);
  EXPECT_THROW(load_csr({0, 2, 2, 3}, {{1, 0.5f}, {2, 0.5f}}), std::runtime_error);
  EXPECT_THROW(load_csr({}, {{1, 0.5f}}), std::runtime_error);
}

}  // namespace
}  // namespace subsel::graph
