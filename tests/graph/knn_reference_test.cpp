// The IVF build's tiled float32 scan against the plain loops it replaced
// (tests/testing/knn_reference.h): the directed kNN lists, search() with an
// outside query, and the symmetrized graph build_similarity_graph returns
// above its exact threshold must match edge for edge with the weight bits,
// on the native backend and on the portable scalar fallback.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/simd.h"
#include "common/thread_pool.h"
#include "graph/embedding_matrix.h"
#include "graph/knn.h"
#include "../testing/knn_reference.h"

namespace subsel::graph {
namespace {

/// `clusters` groups of unit rows around random centers.
EmbeddingMatrix clustered(std::size_t rows, std::size_t dim, std::size_t clusters,
                          std::uint64_t seed) {
  Rng rng(seed);
  EmbeddingMatrix centers(clusters, dim);
  for (float& v : centers.flat()) v = static_cast<float>(rng.normal());
  centers.normalize_rows();
  EmbeddingMatrix m(rows, dim);
  for (std::size_t i = 0; i < rows; ++i) {
    const auto c = centers.row(rng.uniform_index(clusters));
    auto row = m.row(i);
    for (std::size_t d = 0; d < dim; ++d) {
      row[d] = c[d] + 0.3f * static_cast<float>(rng.normal());
    }
  }
  m.normalize_rows();
  return m;
}

void expect_same_edges(const std::vector<Edge>& expected, const std::vector<Edge>& actual,
                       const std::string& where) {
  ASSERT_EQ(expected.size(), actual.size()) << where;
  for (std::size_t e = 0; e < expected.size(); ++e) {
    ASSERT_EQ(expected[e].neighbor, actual[e].neighbor) << where << " edge " << e;
    ASSERT_EQ(std::bit_cast<std::uint32_t>(expected[e].weight),
              std::bit_cast<std::uint32_t>(actual[e].weight))
        << where << " edge " << e;
  }
}

struct Shape {
  std::size_t rows;
  std::size_t dim;
  std::size_t clusters;  // 0 -> the library's sqrt(n) default
  std::size_t probes;
  std::size_t k;
};

// Cluster counts that are and are not multiples of the 8-row tile; clusters
// of fewer than 8 members (90 rows in 24 clusters); every cluster probed; and
// k above the probed candidate count (2 probes of ~4 members for k = 20).
const Shape kShapes[] = {
    {600, 7, 10, 3, 10},  {600, 16, 16, 4, 10},  {500, 63, 13, 5, 8},
    {640, 64, 0, 8, 10},  {400, 130, 24, 6, 10}, {90, 16, 24, 24, 5},
    {90, 64, 24, 2, 20},  {300, 7, 8, 8, 12},
};

// The override resolves kAvx2 to whatever the hardware has: native first.
// knn.cpp has one tile dot for every backend; running both holds the build
// to that.
const simd::Backend kBackends[] = {simd::Backend::kAvx2, simd::Backend::kScalar};

std::string describe(const Shape& s, std::uint64_t seed) {
  return "rows=" + std::to_string(s.rows) + " dim=" + std::to_string(s.dim) +
         " clusters=" + std::to_string(s.clusters) +
         " probes=" + std::to_string(s.probes) + " k=" + std::to_string(s.k) +
         " seed=" + std::to_string(seed) + " backend=" + simd::active_backend_name();
}

KnnConfig config_for(const Shape& s, std::uint64_t seed) {
  KnnConfig config;
  config.num_neighbors = s.k;
  config.num_clusters = s.clusters;
  config.num_probes = s.probes;
  config.seed = seed;
  return config;
}

TEST(IvfReference, KnnGraphMatchesPlainLoopsEdgeForEdge) {
  ThreadPool pool(3);
  bool saw_short_list = false;  // some query probed fewer than k candidates
  for (const Shape& shape : kShapes) {
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
      const EmbeddingMatrix m =
          clustered(shape.rows, shape.dim, 12, seed * 31 + shape.dim);
      const KnnConfig config = config_for(shape, seed);
      const auto expected = testing::ReferenceIvf(m, config).knn_graph();
      for (const simd::Backend backend : kBackends) {
        const simd::ScopedBackendOverride use(backend);
        const std::string where = describe(shape, seed);
        const IvfIndex index(m, config, &pool);
        const auto actual = index.knn_graph(&pool);
        ASSERT_EQ(expected.size(), actual.size()) << where;
        for (std::size_t i = 0; i < expected.size(); ++i) {
          expect_same_edges(expected[i].edges, actual[i].edges,
                            where + " row " + std::to_string(i));
          saw_short_list |= actual[i].edges.size() < shape.k;
        }
      }
    }
  }
  EXPECT_TRUE(saw_short_list);
}

TEST(IvfReference, SearchWithoutExclusionNeverReturnsPaddedSlots) {
  // An outside query with exclude = -1 and k above every probed candidate:
  // all probed members come back, and no slot that pads a cluster's last
  // tile does.
  for (const Shape& shape : kShapes) {
    const EmbeddingMatrix m = clustered(shape.rows, shape.dim, 12, 7 + shape.dim);
    const EmbeddingMatrix queries = clustered(5, shape.dim, 3, 99);
    const KnnConfig config = config_for(shape, 4);
    const testing::ReferenceIvf reference(m, config);
    for (const simd::Backend backend : kBackends) {
      const simd::ScopedBackendOverride use(backend);
      const IvfIndex index(m, config);
      for (std::size_t q = 0; q < queries.rows(); ++q) {
        const std::string where = describe(shape, 4) + " query " + std::to_string(q);
        const auto actual = index.search(queries.row(q), shape.rows, -1);
        expect_same_edges(reference.search(queries.row(q), shape.rows, -1), actual,
                          where);
        for (const Edge& e : actual) ASSERT_GE(e.neighbor, 0) << where;
      }
    }
  }
}

TEST(IvfReference, SimilarityGraphAboveExactThresholdMatches) {
  ThreadPool pool(3);
  for (const Shape& shape : kShapes) {
    for (const std::uint64_t seed : {5u, 6u, 7u}) {
      const EmbeddingMatrix m = clustered(shape.rows, shape.dim, 12, seed + shape.dim);
      const KnnConfig config = config_for(shape, seed);
      const SimilarityGraph expected =
          SimilarityGraph::from_lists(testing::ReferenceIvf(m, config).knn_graph())
              .symmetrized();
      for (const simd::Backend backend : kBackends) {
        const simd::ScopedBackendOverride use(backend);
        const std::string where = describe(shape, seed);
        const SimilarityGraph actual =
            build_similarity_graph(m, config, /*exact_threshold=*/shape.rows - 1, &pool);
        ASSERT_EQ(expected.num_nodes(), actual.num_nodes()) << where;
        for (std::size_t v = 0; v < expected.num_nodes(); ++v) {
          const auto id = static_cast<NodeId>(v);
          const auto want = expected.neighbors(id);
          const auto got = actual.neighbors(id);
          expect_same_edges({want.begin(), want.end()}, {got.begin(), got.end()},
                            where + " node " + std::to_string(v));
        }
      }
    }
  }
}

}  // namespace
}  // namespace subsel::graph
