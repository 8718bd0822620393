// Shared helpers for randomized algorithm tests: small synthetic instances
// and a brute-force optimum for validating approximation guarantees.
#pragma once

#include <algorithm>
#include <limits>
#include <vector>

#include "common/rng.h"
#include "core/objective.h"
#include "data/synthetic.h"
#include "data/utility_model.h"
#include "graph/ground_set.h"
#include "graph/knn.h"
#include "graph/similarity_graph.h"

namespace subsel::testing {

struct Instance {
  graph::SimilarityGraph graph;
  std::vector<double> utilities;

  graph::InMemoryGroundSet ground_set() const {
    return graph::InMemoryGroundSet(graph, utilities);
  }
};

/// Random symmetric graph: each node gets ~`degree` random neighbors with
/// weights in (0, max_weight]; utilities in (0, max_utility].
inline Instance random_instance(std::size_t n, std::size_t degree, std::uint64_t seed,
                                double max_weight = 1.0, double max_utility = 2.0) {
  Rng rng(seed);
  std::vector<graph::NeighborList> lists(n);
  for (std::size_t v = 0; v < n; ++v) {
    for (std::size_t e = 0; e < degree; ++e) {
      const auto other = static_cast<graph::NodeId>(rng.uniform_index(n));
      if (other == static_cast<graph::NodeId>(v)) continue;
      const bool exists =
          std::any_of(lists[v].edges.begin(), lists[v].edges.end(),
                      [other](const graph::Edge& edge) { return edge.neighbor == other; });
      if (exists) continue;
      lists[v].edges.push_back(
          graph::Edge{other, static_cast<float>(rng.uniform(0.01, max_weight))});
    }
  }
  Instance instance;
  instance.graph = graph::SimilarityGraph::from_lists(lists).symmetrized();
  instance.utilities.resize(n);
  for (double& u : instance.utilities) u = rng.uniform(0.01, max_utility);
  return instance;
}

/// kNN-structured instance shaped like the CIFAR proxy at small scale:
/// clustered 16-d embeddings (one class per ~50 points), margin utilities
/// from a coarse classifier, and the symmetrized exact 10-NN cosine graph.
/// Unlike random_instance, selections here unlock their neighbors gradually,
/// so approximate bounding runs dozens of Grow passes. Never cached on disk.
inline Instance clustered_instance(std::size_t n, std::uint64_t seed) {
  data::ClusteredEmbeddingConfig embeddings;
  embeddings.num_points = n;
  embeddings.dim = 16;
  embeddings.num_classes = std::max<std::size_t>(2, n / 50);
  embeddings.seed = seed;
  const data::ClusteredEmbeddings generated =
      data::generate_clustered_embeddings(embeddings);

  data::CoarseClassifierConfig classifier_config;
  classifier_config.seed = seed + 1;
  const data::CoarseClassifier classifier(generated.centers, classifier_config);

  graph::KnnConfig knn;
  knn.num_neighbors = 10;
  Instance instance;
  instance.utilities = data::compute_margin_utilities(generated.points, classifier);
  instance.graph = graph::build_similarity_graph(generated.points, knn,
                                                 /*exact_threshold=*/n + 1);
  return instance;
}

/// Exhaustive optimum over all subsets of size k (use only for tiny n).
inline double brute_force_optimum(const graph::GroundSet& ground_set,
                                  core::ObjectiveParams params, std::size_t k,
                                  std::vector<graph::NodeId>* best_subset = nullptr) {
  const std::size_t n = ground_set.num_points();
  std::vector<graph::NodeId> subset(k);
  std::vector<bool> chooser(n, false);
  std::fill(chooser.begin(), chooser.begin() + static_cast<std::ptrdiff_t>(k), true);
  core::PairwiseObjective objective(ground_set, params);

  double best = -std::numeric_limits<double>::infinity();
  do {
    std::size_t index = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (chooser[i]) subset[index++] = static_cast<graph::NodeId>(i);
    }
    const double value = objective.evaluate(subset);
    if (value > best) {
      best = value;
      if (best_subset != nullptr) *best_subset = subset;
    }
  } while (std::prev_permutation(chooser.begin(), chooser.end()));
  return best;
}

}  // namespace subsel::testing
