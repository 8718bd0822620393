// k-nearest-neighbor graph construction.
//
// Two backends:
//  - exact brute force (O(n^2 d)), used for small instances and as the recall
//    reference in tests;
//  - an IVF (inverted-file) approximate index — k-means coarse quantizer with
//    multi-probe search — standing in for the ScaNN similarity search the
//    paper uses (Guo et al., 2020). num_probes trades recall against time:
//    recall is well below 1.0 at the default 8 probes, and probing every
//    cluster makes the search exhaustive. The README's "Performance notes:
//    kNN build" has the measured recall/time frontier.
//
// Both return directed kNN lists with cosine-similarity weights (embeddings
// must be row-normalized); callers symmetrize via SimilarityGraph.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/thread_pool.h"
#include "graph/embedding_matrix.h"
#include "graph/similarity_graph.h"

namespace subsel::graph {

struct KnnConfig {
  std::size_t num_neighbors = 10;  // the paper's 10-NN
  // IVF parameters; ignored by the brute-force backend.
  std::size_t num_clusters = 0;      // 0 -> ~sqrt(n) heuristic
  std::size_t num_probes = 8;        // clusters scanned per query
  std::size_t kmeans_iterations = 8;
  std::uint64_t seed = 1;
};

/// Exact kNN by cosine similarity. Self is excluded. Ties broken by lower id.
std::vector<NeighborList> brute_force_knn(const EmbeddingMatrix& embeddings,
                                          const KnnConfig& config,
                                          ThreadPool* pool = nullptr);

/// IVF approximate kNN index (ScaNN stand-in).
class IvfIndex {
 public:
  /// Builds the coarse quantizer over `embeddings` (must be row-normalized;
  /// the matrix must outlive the index).
  IvfIndex(const EmbeddingMatrix& embeddings, const KnnConfig& config,
           ThreadPool* pool = nullptr);

  /// Top-k most-similar points for `query` among the probed clusters,
  /// excluding `exclude` (pass a valid id to drop self-matches, or -1).
  /// Throws std::invalid_argument when `query` is not embeddings.dim() long.
  std::vector<Edge> search(std::span<const float> query, std::size_t k,
                           NodeId exclude) const;

  /// Builds the full directed kNN graph for all indexed points.
  std::vector<NeighborList> knn_graph(ThreadPool* pool = nullptr) const;

  std::size_t num_clusters() const noexcept { return cluster_offsets_.size() - 1; }

 private:
  const EmbeddingMatrix& embeddings_;
  KnnConfig config_;
  // Cluster-major member slots: cluster c owns slots
  // [cluster_offsets_[c], cluster_offsets_[c + 1]), its members in ascending
  // id order, padded with -1 ids to a whole number of 8-row tiles.
  std::vector<NodeId> member_ids_;
  std::vector<std::size_t> cluster_offsets_;
  // search()'s copies of the member rows (slot order) and of the final
  // centroids, in 8-row tiles stored dimension-major: tile[d * 8 + lane].
  std::vector<float> member_tiles_;
  std::vector<float> centroid_tiles_;
};

/// Convenience: build a symmetrized similarity graph from embeddings with the
/// backend chosen by size (exact below `exact_threshold` rows, IVF above).
SimilarityGraph build_similarity_graph(const EmbeddingMatrix& embeddings,
                                       const KnnConfig& config,
                                       std::size_t exact_threshold = 4096,
                                       ThreadPool* pool = nullptr);

}  // namespace subsel::graph
