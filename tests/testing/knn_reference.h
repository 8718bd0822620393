// Plain-loop IVF kNN build: the oracle graph::IvfIndex's tiled float32 scan
// is held to, edge for edge and bit for bit.
//
// These are the loops the index ran before it copied its member rows into
// cluster-major tiles: the k-means assign step with one graph::dot per
// centroid, the centroid ranking with one graph::dot per centroid, and a
// member scan that gathers each member's row from wherever it sits in the
// matrix. Seeding, the update step and the num_clusters/num_probes clamps are
// the library's. Top-k is a full sort under the library collector's total
// order (weight descending, id ascending), which does not depend on the order
// candidates are offered in; weights are clamped at zero after the cut, as
// the library does.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <span>
#include <vector>

#include "common/rng.h"
#include "graph/embedding_matrix.h"
#include "graph/knn.h"
#include "graph/similarity_graph.h"

namespace subsel::testing {

/// The k best of `candidates` by (weight desc, id asc), raw weights.
inline std::vector<graph::Edge> reference_top_k(std::vector<graph::Edge> candidates,
                                                std::size_t k) {
  std::sort(candidates.begin(), candidates.end(),
            [](const graph::Edge& a, const graph::Edge& b) {
              if (a.weight != b.weight) return a.weight > b.weight;
              return a.neighbor < b.neighbor;
            });
  candidates.resize(std::min(k, candidates.size()));
  return candidates;
}

class ReferenceIvf {
 public:
  ReferenceIvf(const graph::EmbeddingMatrix& embeddings, const graph::KnnConfig& config)
      : embeddings_(embeddings), config_(config) {
    const std::size_t n = embeddings.rows();
    std::size_t num_clusters = config.num_clusters;
    if (num_clusters == 0) {
      num_clusters = std::max<std::size_t>(
          1, static_cast<std::size_t>(std::sqrt(static_cast<double>(n))));
    }
    num_clusters = std::min(num_clusters, n);
    config_.num_probes =
        std::min(std::max<std::size_t>(1, config_.num_probes), num_clusters);

    Rng rng(config.seed);
    const auto seeds = rng.sample_without_replacement(n, num_clusters);
    centroids_ = graph::EmbeddingMatrix(num_clusters, embeddings.dim());
    for (std::size_t c = 0; c < num_clusters; ++c) {
      const auto src = embeddings.row(static_cast<std::size_t>(seeds[c]));
      std::copy(src.begin(), src.end(), centroids_.row(c).begin());
    }

    std::vector<std::size_t> assignment(n, 0);
    for (std::size_t iter = 0; iter < config.kmeans_iterations; ++iter) {
      // Assign step: one dot per centroid, strict > in centroid order.
      for (std::size_t i = 0; i < n; ++i) {
        float best_sim = -2.0f;
        std::size_t best_cluster = 0;
        for (std::size_t c = 0; c < num_clusters; ++c) {
          const float sim = graph::dot(embeddings.row(i), centroids_.row(c));
          if (sim > best_sim) {
            best_sim = sim;
            best_cluster = c;
          }
        }
        assignment[i] = best_cluster;
      }
      // Update step.
      graph::EmbeddingMatrix sums(num_clusters, embeddings.dim());
      std::vector<std::size_t> counts(num_clusters, 0);
      for (std::size_t i = 0; i < n; ++i) {
        auto acc = sums.row(assignment[i]);
        const auto point = embeddings.row(i);
        for (std::size_t d = 0; d < point.size(); ++d) acc[d] += point[d];
        ++counts[assignment[i]];
      }
      for (std::size_t c = 0; c < num_clusters; ++c) {
        if (counts[c] == 0) continue;
        const auto src = sums.row(c);
        std::copy(src.begin(), src.end(), centroids_.row(c).begin());
      }
      centroids_.normalize_rows();
    }

    members_.assign(num_clusters, {});
    for (std::size_t i = 0; i < n; ++i) {
      members_[assignment[i]].push_back(static_cast<graph::NodeId>(i));
    }
  }

  std::vector<graph::Edge> search(std::span<const float> query, std::size_t k,
                                  graph::NodeId exclude) const {
    // Centroid ranking: one dot per centroid.
    std::vector<graph::Edge> clusters;
    for (std::size_t c = 0; c < centroids_.rows(); ++c) {
      clusters.push_back(
          {static_cast<graph::NodeId>(c), graph::dot(query, centroids_.row(c))});
    }
    // Member scan: gather each member's row.
    std::vector<graph::Edge> candidates;
    for (const graph::Edge& cluster :
         reference_top_k(std::move(clusters), config_.num_probes)) {
      for (const graph::NodeId member :
           members_[static_cast<std::size_t>(cluster.neighbor)]) {
        if (member == exclude) continue;
        const auto row = embeddings_.row(static_cast<std::size_t>(member));
        candidates.push_back({member, graph::dot(query, row)});
      }
    }
    auto edges = reference_top_k(std::move(candidates), k);
    for (graph::Edge& e : edges) e.weight = e.weight > 0.0f ? e.weight : 0.0f;
    return edges;
  }

  std::vector<graph::NeighborList> knn_graph() const {
    std::vector<graph::NeighborList> lists(embeddings_.rows());
    for (std::size_t i = 0; i < lists.size(); ++i) {
      lists[i].edges = search(embeddings_.row(i), config_.num_neighbors,
                              static_cast<graph::NodeId>(i));
    }
    return lists;
  }

 private:
  const graph::EmbeddingMatrix& embeddings_;
  graph::KnnConfig config_;
  graph::EmbeddingMatrix centroids_;
  std::vector<std::vector<graph::NodeId>> members_;
};

}  // namespace subsel::testing
