// Sort-based symmetrize: the oracle SimilarityGraph::symmetrized()'s
// counting-sort transpose and row merge are held to, edge for edge and bit
// for bit.
//
// This is the loop symmetrized() ran before it wrote the CSR directly: copy
// every forward row into a per-node list, append every reverse edge, sort
// each list by (id ascending, weight descending), keep the first entry of
// each id (the larger weight of the two directions), and rebuild the CSR
// with from_lists, which sorts every list again and checks ids, self loops
// and weights.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "graph/similarity_graph.h"

namespace subsel::testing {

inline graph::SimilarityGraph reference_symmetrized(const graph::SimilarityGraph& graph) {
  const std::size_t n = graph.num_nodes();
  std::vector<graph::NeighborList> lists(n);
  for (std::size_t v = 0; v < n; ++v) {
    const auto row = graph.neighbors(static_cast<graph::NodeId>(v));
    lists[v].edges.assign(row.begin(), row.end());
  }
  for (std::size_t v = 0; v < n; ++v) {
    for (const graph::Edge& edge : graph.neighbors(static_cast<graph::NodeId>(v))) {
      lists[static_cast<std::size_t>(edge.neighbor)].edges.push_back(
          graph::Edge{static_cast<graph::NodeId>(v), edge.weight});
    }
  }
  for (auto& list : lists) {
    std::sort(list.edges.begin(), list.edges.end(),
              [](const graph::Edge& a, const graph::Edge& b) {
                if (a.neighbor != b.neighbor) return a.neighbor < b.neighbor;
                return a.weight > b.weight;
              });
    list.edges.erase(std::unique(list.edges.begin(), list.edges.end(),
                                 [](const graph::Edge& a, const graph::Edge& b) {
                                   return a.neighbor == b.neighbor;
                                 }),
                     list.edges.end());
  }
  return graph::SimilarityGraph::from_lists(lists);
}

}  // namespace subsel::testing
