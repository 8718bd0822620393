#include "graph/knn.h"

#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <vector>

#include "common/rng.h"
#include "graph/embedding_matrix.h"

namespace subsel::graph {
namespace {

EmbeddingMatrix random_normalized(std::size_t rows, std::size_t dim,
                                  std::uint64_t seed) {
  EmbeddingMatrix m(rows, dim);
  subsel::Rng rng(seed);
  for (std::size_t i = 0; i < rows; ++i) {
    for (float& v : m.row(i)) v = static_cast<float>(rng.normal());
  }
  m.normalize_rows();
  return m;
}

/// Clustered embeddings: `clusters` tight groups so ANN recall is meaningful.
EmbeddingMatrix clustered(std::size_t rows, std::size_t dim, std::size_t clusters,
                          std::uint64_t seed) {
  EmbeddingMatrix centers = random_normalized(clusters, dim, seed);
  EmbeddingMatrix m(rows, dim);
  subsel::Rng rng(seed + 1);
  for (std::size_t i = 0; i < rows; ++i) {
    const auto c = centers.row(i % clusters);
    auto row = m.row(i);
    for (std::size_t d = 0; d < dim; ++d) {
      row[d] = c[d] + 0.1f * static_cast<float>(rng.normal());
    }
  }
  m.normalize_rows();
  return m;
}

TEST(EmbeddingMatrix, NormalizeRowsMakesUnitNorm) {
  auto m = random_normalized(10, 8, 1);
  for (std::size_t i = 0; i < m.rows(); ++i) {
    EXPECT_NEAR(dot(m.row(i), m.row(i)), 1.0f, 1e-5f);
  }
}

TEST(EmbeddingMatrix, DotMatchesManualSum) {
  EmbeddingMatrix m(2, 5);
  for (std::size_t d = 0; d < 5; ++d) {
    m.row(0)[d] = static_cast<float>(d + 1);
    m.row(1)[d] = 2.0f;
  }
  EXPECT_FLOAT_EQ(dot(m.row(0), m.row(1)), 2.0f * (1 + 2 + 3 + 4 + 5));
}

TEST(EmbeddingMatrix, SquaredL2) {
  EmbeddingMatrix m(2, 3);
  m.row(0)[0] = 1.0f;
  m.row(1)[1] = 2.0f;
  EXPECT_FLOAT_EQ(squared_l2(m.row(0), m.row(1)), 1.0f + 4.0f);
}

TEST(BruteForceKnn, FindsExactNeighborsOnLine) {
  // Points on a 1-D arc: nearest neighbors are adjacent indices.
  const std::size_t n = 20;
  EmbeddingMatrix m(n, 2);
  for (std::size_t i = 0; i < n; ++i) {
    const float angle = 0.05f * static_cast<float>(i);
    m.row(i)[0] = std::cos(angle);
    m.row(i)[1] = std::sin(angle);
  }
  KnnConfig config;
  config.num_neighbors = 2;
  const auto lists = brute_force_knn(m, config);
  // Interior points: neighbors are i-1 and i+1.
  for (std::size_t i = 1; i + 1 < n; ++i) {
    std::set<NodeId> ids;
    for (const Edge& e : lists[i].edges) ids.insert(e.neighbor);
    EXPECT_TRUE(ids.count(static_cast<NodeId>(i - 1)));
    EXPECT_TRUE(ids.count(static_cast<NodeId>(i + 1)));
  }
}

TEST(BruteForceKnn, ExcludesSelf) {
  auto m = random_normalized(50, 8, 2);
  KnnConfig config;
  config.num_neighbors = 5;
  const auto lists = brute_force_knn(m, config);
  for (std::size_t i = 0; i < lists.size(); ++i) {
    EXPECT_EQ(lists[i].edges.size(), 5u);
    for (const Edge& e : lists[i].edges) {
      EXPECT_NE(e.neighbor, static_cast<NodeId>(i));
      EXPECT_GE(e.weight, 0.0f);
    }
  }
}

TEST(BruteForceKnn, NeighborsSortedByDescendingSimilarity) {
  auto m = random_normalized(100, 16, 3);
  KnnConfig config;
  config.num_neighbors = 10;
  const auto lists = brute_force_knn(m, config);
  for (const auto& list : lists) {
    for (std::size_t e = 1; e < list.edges.size(); ++e) {
      EXPECT_GE(list.edges[e - 1].weight, list.edges[e].weight);
    }
  }
}

TEST(IvfIndex, HighRecallOnClusteredData) {
  auto m = clustered(2000, 16, 20, 4);
  KnnConfig config;
  config.num_neighbors = 10;
  config.num_clusters = 20;
  config.num_probes = 4;
  const auto exact = brute_force_knn(m, config);
  IvfIndex index(m, config);
  const auto approx = index.knn_graph();

  std::size_t hits = 0, total = 0;
  for (std::size_t i = 0; i < m.rows(); ++i) {
    std::set<NodeId> truth;
    for (const Edge& e : exact[i].edges) truth.insert(e.neighbor);
    for (const Edge& e : approx[i].edges) hits += truth.count(e.neighbor);
    total += exact[i].edges.size();
  }
  const double recall = static_cast<double>(hits) / static_cast<double>(total);
  EXPECT_GT(recall, 0.95);
}

TEST(IvfIndex, FullProbeEqualsBruteForce) {
  auto m = random_normalized(300, 8, 5);
  KnnConfig config;
  config.num_neighbors = 5;
  config.num_clusters = 10;
  config.num_probes = 10;  // probe everything -> exhaustive search
  const auto exact = brute_force_knn(m, config);
  IvfIndex index(m, config);
  const auto approx = index.knn_graph();
  for (std::size_t i = 0; i < m.rows(); ++i) {
    ASSERT_EQ(exact[i].edges.size(), approx[i].edges.size());
    for (std::size_t e = 0; e < exact[i].edges.size(); ++e) {
      EXPECT_EQ(exact[i].edges[e].neighbor, approx[i].edges[e].neighbor);
    }
  }
}

TEST(IvfIndex, SearchRejectsQueryOfWrongDimension) {
  auto m = random_normalized(100, 8, 9);
  IvfIndex index(m, KnnConfig{});
  const std::vector<float> short_query(7, 0.1f);
  const std::vector<float> long_query(9, 0.1f);
  EXPECT_THROW(index.search(short_query, 5, -1), std::invalid_argument);
  EXPECT_THROW(index.search(long_query, 5, -1), std::invalid_argument);
  EXPECT_EQ(index.search(m.row(0), 5, 0).size(), 5u);
}

TEST(IvfIndex, DefaultClusterCountIsSqrtN) {
  auto m = random_normalized(400, 8, 6);
  KnnConfig config;
  IvfIndex index(m, config);
  EXPECT_EQ(index.num_clusters(), 20u);
}

TEST(BuildSimilarityGraph, ProducesSymmetricGraphWithMinDegreeK) {
  auto m = clustered(500, 16, 10, 7);
  KnnConfig config;
  config.num_neighbors = 10;
  const auto graph = build_similarity_graph(m, config, /*exact_threshold=*/1000);
  EXPECT_EQ(graph.num_nodes(), 500u);
  EXPECT_TRUE(graph.is_symmetric());
  // Symmetrization can only add edges, so min degree >= 10 (the paper's
  // "at least 10 neighbors" with average ~15).
  EXPECT_GE(graph.min_degree(), 10u);
  EXPECT_GE(graph.average_degree(), 10.0);
  EXPECT_LE(graph.average_degree(), 20.0);
}

TEST(BuildSimilarityGraph, IvfPathAlsoSymmetric) {
  auto m = clustered(600, 16, 12, 8);
  KnnConfig config;
  config.num_neighbors = 5;
  const auto graph = build_similarity_graph(m, config, /*exact_threshold=*/100);
  EXPECT_TRUE(graph.is_symmetric());
  EXPECT_GE(graph.min_degree(), 5u);
}

}  // namespace
}  // namespace subsel::graph
