// Materialized evaluation datasets (CIFAR-100 and ImageNet proxies).
//
// A Dataset bundles everything Section 6 derives before selection runs:
// row-normalized embeddings, class labels, centered margin utilities, and the
// symmetrized 10-NN cosine-similarity graph. Construction is deterministic
// from the config and cached on disk (embeddings + graph are the expensive
// parts) so the many bench binaries share one build.
//
// Paper -> proxy mapping:
//   CIFAR-100: 50k points, 64-d, 100 classes  -> cifar_proxy(scale)
//   ImageNet : 1.2M points, 2048-d, 1000 cls  -> imagenet_proxy(scale),
//              default 120k x 128-d so the full benchmark grid runs in
//              minutes; pass scale=10 for the paper's cardinality.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "data/synthetic.h"
#include "data/utility_model.h"
#include "graph/ground_set.h"
#include "graph/knn.h"
#include "graph/similarity_graph.h"

namespace subsel::data {

struct DatasetConfig {
  std::string name = "dataset";
  ClusteredEmbeddingConfig embeddings;
  CoarseClassifierConfig classifier;
  graph::KnnConfig knn;
  /// Brute-force kNN below this many points, IVF above.
  std::size_t exact_knn_threshold = 4096;
};

struct Dataset {
  std::string name;
  graph::EmbeddingMatrix embeddings;
  std::vector<std::uint32_t> labels;
  std::vector<double> utilities;  // centered margin utilities
  graph::SimilarityGraph graph;   // symmetrized kNN graph

  std::size_t size() const noexcept { return graph.num_nodes(); }

  graph::InMemoryGroundSet ground_set() const {
    return graph::InMemoryGroundSet(graph, utilities);
  }
};

/// Builds (or loads from cache) the dataset for `config`. The cache directory
/// is $SUBSEL_CACHE_DIR, defaulting to /tmp/subsel_cache; set it to "" to
/// disable caching.
Dataset make_dataset(const DatasetConfig& config);

/// CIFAR-100 proxy: floor(50k*scale) points, 64-d, 100 classes, 10-NN.
Dataset cifar_proxy(double scale = 1.0, std::uint64_t seed = 42);

/// ImageNet proxy: floor(120k*scale) points, 128-d, 1000 classes, 10-NN.
/// scale=10 reproduces the paper's 1.2M cardinality.
Dataset imagenet_proxy(double scale = 1.0, std::uint64_t seed = 1337);

/// Tiny deterministic dataset for tests/examples (exact kNN).
Dataset toy_dataset(std::size_t num_points = 256, std::size_t num_classes = 8,
                    std::uint64_t seed = 3);

}  // namespace subsel::data
