#include "graph/knn.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/rng.h"

namespace subsel::graph {
namespace {

/// Bounded max-similarity collector: keeps the k most similar candidates seen
/// so far, with deterministic tie-breaking on lower id.
class TopKCollector {
 public:
  explicit TopKCollector(std::size_t k) : k_(k) { heap_.reserve(k + 1); }

  void offer(NodeId id, float similarity) {
    if (heap_.size() < k_) {
      heap_.push_back(Edge{id, similarity});
      std::push_heap(heap_.begin(), heap_.end(), worse_first_);
      return;
    }
    if (k_ == 0 || !better(Edge{id, similarity}, heap_.front())) return;
    std::pop_heap(heap_.begin(), heap_.end(), worse_first_);
    heap_.back() = Edge{id, similarity};
    std::push_heap(heap_.begin(), heap_.end(), worse_first_);
  }

  /// Extracts results sorted by descending similarity (ascending id on ties).
  std::vector<Edge> take_sorted() {
    std::sort(heap_.begin(), heap_.end(),
              [](const Edge& a, const Edge& b) { return better(a, b); });
    return std::move(heap_);
  }

 private:
  static bool better(const Edge& a, const Edge& b) {
    if (a.weight != b.weight) return a.weight > b.weight;
    return a.neighbor < b.neighbor;
  }
  static constexpr auto worse_first_ = [](const Edge& a, const Edge& b) {
    return better(a, b);  // min-heap on "better": root is the worst kept edge
  };

  std::size_t k_;
  std::vector<Edge> heap_;
};

ThreadPool& pool_or_global(ThreadPool* pool) {
  return pool != nullptr ? *pool : global_thread_pool();
}

/// Cosine similarities can be slightly negative for far-apart points; the
/// objective requires s >= 0 (Section 3), so clamp — the paper's similarity
/// graphs only keep nearest neighbors, whose cosine is positive in practice.
float clamp_similarity(float s) { return s > 0.0f ? s : 0.0f; }

// ---------------------------------------------------------------------------
// The float32 scan over tiles. Rows are copied into tiles of kTileRows rows
// stored dimension-major (tile[d * kTileRows + lane]), and one call scores a
// query against every row of a tile. Each lane performs graph::dot's
// operations in graph::dot's order: accumulators a0..a3 take dims i..i+3
// while i steps by 4, the dim % 4 tail goes into a0, and the result is
// ((a0 + a1) + a2) + a3, every step a separate multiply and add (this file is
// built with -ffp-contract=off). So a tile score is bit-identical to
// dot(query, row), and so is the graph. The lanes are independent, so the
// compiler may vectorize across them without reordering any lane's
// operations. A hand-written AVX2 variant measured no end-to-end gain beyond
// run-to-run spread (README, "Performance notes: kNN build"), so there is
// one path.
// ---------------------------------------------------------------------------

constexpr std::size_t kTileRows = 8;
constexpr NodeId kPadding = -1;  // member slot past the end of its cluster

void tile_dot(const float* query, const float* tile, std::size_t dim, float* out) {
  float a0[kTileRows] = {}, a1[kTileRows] = {}, a2[kTileRows] = {},
        a3[kTileRows] = {};
  std::size_t i = 0;
  for (; i + 4 <= dim; i += 4) {
    const float* t = tile + i * kTileRows;
    for (std::size_t lane = 0; lane < kTileRows; ++lane) {
      a0[lane] += query[i] * t[lane];
      a1[lane] += query[i + 1] * t[kTileRows + lane];
      a2[lane] += query[i + 2] * t[2 * kTileRows + lane];
      a3[lane] += query[i + 3] * t[3 * kTileRows + lane];
    }
  }
  for (; i < dim; ++i) {
    for (std::size_t lane = 0; lane < kTileRows; ++lane) {
      a0[lane] += query[i] * tile[i * kTileRows + lane];
    }
  }
  for (std::size_t lane = 0; lane < kTileRows; ++lane) {
    out[lane] = ((a0[lane] + a1[lane]) + a2[lane]) + a3[lane];
  }
}

std::size_t round_up_to_tile(std::size_t rows) {
  return (rows + kTileRows - 1) / kTileRows * kTileRows;
}

/// Copies `row` into slot `slot` of a tile buffer: tile slot / kTileRows,
/// lane slot % kTileRows.
void store_in_tile(std::span<const float> row, std::size_t slot, float* tiles) {
  float* tile = tiles + (slot - slot % kTileRows) * row.size();
  const std::size_t lane = slot % kTileRows;
  for (std::size_t d = 0; d < row.size(); ++d) tile[d * kTileRows + lane] = row[d];
}

/// Every row of `m` in slot order; the last tile's unused lanes stay zero.
std::vector<float> tile_rows(const EmbeddingMatrix& m) {
  std::vector<float> tiles(round_up_to_tile(m.rows()) * m.dim(), 0.0f);
  for (std::size_t r = 0; r < m.rows(); ++r) store_in_tile(m.row(r), r, tiles.data());
  return tiles;
}

/// Scores `query` against slots [0, slots) of a tile buffer and calls
/// visit(slot, score) in slot order.
template <class Visit>
void scan_tiles(std::span<const float> query, const float* tiles, std::size_t slots,
                Visit&& visit) {
  const std::size_t dim = query.size();
  float scores[kTileRows] = {};
  for (std::size_t first = 0; first < slots; first += kTileRows) {
    tile_dot(query.data(), tiles + first * dim, dim, scores);
    const std::size_t lanes = std::min(kTileRows, slots - first);
    for (std::size_t lane = 0; lane < lanes; ++lane) visit(first + lane, scores[lane]);
  }
}

}  // namespace

std::vector<NeighborList> brute_force_knn(const EmbeddingMatrix& embeddings,
                                          const KnnConfig& config, ThreadPool* pool) {
  const std::size_t n = embeddings.rows();
  std::vector<NeighborList> lists(n);
  pool_or_global(pool).parallel_for(n, [&](std::size_t i) {
    TopKCollector collector(config.num_neighbors);
    const auto query = embeddings.row(i);
    for (std::size_t j = 0; j < n; ++j) {
      if (j == i) continue;
      collector.offer(static_cast<NodeId>(j), dot(query, embeddings.row(j)));
    }
    auto edges = collector.take_sorted();
    for (Edge& e : edges) e.weight = clamp_similarity(e.weight);
    lists[i].edges = std::move(edges);
  });
  return lists;
}

IvfIndex::IvfIndex(const EmbeddingMatrix& embeddings, const KnnConfig& config,
                   ThreadPool* pool)
    : embeddings_(embeddings), config_(config) {
  const std::size_t n = embeddings.rows();
  if (n == 0) throw std::invalid_argument("IvfIndex: empty embeddings");
  std::size_t num_clusters = config.num_clusters;
  if (num_clusters == 0) {
    num_clusters = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::sqrt(static_cast<double>(n))));
  }
  num_clusters = std::min(num_clusters, n);
  config_.num_clusters = num_clusters;
  config_.num_probes = std::min(std::max<std::size_t>(1, config_.num_probes),
                                num_clusters);

  // k-means++-lite seeding: random distinct points.
  Rng rng(config.seed);
  auto seeds = rng.sample_without_replacement(n, num_clusters);
  EmbeddingMatrix centroids(num_clusters, embeddings.dim());
  for (std::size_t c = 0; c < num_clusters; ++c) {
    auto src = embeddings.row(static_cast<std::size_t>(seeds[c]));
    std::copy(src.begin(), src.end(), centroids.row(c).begin());
  }

  std::vector<std::uint32_t> assignment(n, 0);
  ThreadPool& workers = pool_or_global(pool);
  for (std::size_t iter = 0; iter < config_.kmeans_iterations; ++iter) {
    // Assign step (maximize cosine similarity to centroid; the first of equal
    // maxima in centroid order wins): each point is scored against this
    // iteration's centroids in tiles.
    const std::vector<float> iter_tiles = tile_rows(centroids);
    workers.parallel_for(n, [&](std::size_t i) {
      float best_sim = -2.0f;
      std::uint32_t best_cluster = 0;
      scan_tiles(embeddings.row(i), iter_tiles.data(), num_clusters,
                 [&](std::size_t c, float sim) {
                   if (sim > best_sim) {
                     best_sim = sim;
                     best_cluster = static_cast<std::uint32_t>(c);
                   }
                 });
      assignment[i] = best_cluster;
    });
    // Update step.
    EmbeddingMatrix sums(num_clusters, embeddings.dim());
    std::vector<std::size_t> counts(num_clusters, 0);
    for (std::size_t i = 0; i < n; ++i) {
      auto acc = sums.row(assignment[i]);
      const auto point = embeddings.row(i);
      for (std::size_t d = 0; d < point.size(); ++d) acc[d] += point[d];
      ++counts[assignment[i]];
    }
    for (std::size_t c = 0; c < num_clusters; ++c) {
      if (counts[c] == 0) continue;  // empty cluster keeps its old centroid
      auto dst = centroids.row(c);
      auto src = sums.row(c);
      std::copy(src.begin(), src.end(), dst.begin());
    }
    centroids.normalize_rows();
  }

  // Cluster-major slots, each cluster padded to whole tiles; a counting sort
  // keeps every cluster's members in ascending id order.
  std::vector<std::size_t> counts(num_clusters, 0);
  for (std::size_t i = 0; i < n; ++i) ++counts[assignment[i]];
  cluster_offsets_.assign(num_clusters + 1, 0);
  for (std::size_t c = 0; c < num_clusters; ++c) {
    cluster_offsets_[c + 1] = cluster_offsets_[c] + round_up_to_tile(counts[c]);
  }
  member_ids_.assign(cluster_offsets_.back(), kPadding);
  std::vector<std::size_t> next(cluster_offsets_.begin(), cluster_offsets_.end() - 1);
  for (std::size_t i = 0; i < n; ++i) {
    member_ids_[next[assignment[i]]++] = static_cast<NodeId>(i);
  }
  member_tiles_.assign(member_ids_.size() * embeddings.dim(), 0.0f);
  for (std::size_t slot = 0; slot < member_ids_.size(); ++slot) {
    if (member_ids_[slot] == kPadding) continue;
    store_in_tile(embeddings.row(static_cast<std::size_t>(member_ids_[slot])), slot,
                  member_tiles_.data());
  }
  centroid_tiles_ = tile_rows(centroids);
}

std::vector<Edge> IvfIndex::search(std::span<const float> query, std::size_t k,
                                   NodeId exclude) const {
  if (query.size() != embeddings_.dim()) {
    throw std::invalid_argument(
        "IvfIndex::search: query dimension differs from the index");
  }
  // Rank clusters by centroid similarity, scan the best `num_probes`.
  TopKCollector cluster_rank(config_.num_probes);
  scan_tiles(query, centroid_tiles_.data(), num_clusters(), [&](std::size_t c, float sim) {
    cluster_rank.offer(static_cast<NodeId>(c), sim);
  });
  TopKCollector collector(k);
  for (const Edge& cluster : cluster_rank.take_sorted()) {
    const auto c = static_cast<std::size_t>(cluster.neighbor);
    const std::size_t first = cluster_offsets_[c];
    scan_tiles(query, member_tiles_.data() + first * query.size(),
               cluster_offsets_[c + 1] - first, [&](std::size_t slot, float sim) {
                 const NodeId member = member_ids_[first + slot];
                 if (member == kPadding || member == exclude) return;
                 collector.offer(member, sim);
               });
  }
  auto edges = collector.take_sorted();
  for (Edge& e : edges) e.weight = clamp_similarity(e.weight);
  return edges;
}

std::vector<NeighborList> IvfIndex::knn_graph(ThreadPool* pool) const {
  const std::size_t n = embeddings_.rows();
  std::vector<NeighborList> lists(n);
  pool_or_global(pool).parallel_for(n, [&](std::size_t i) {
    lists[i].edges =
        search(embeddings_.row(i), config_.num_neighbors, static_cast<NodeId>(i));
  });
  return lists;
}

SimilarityGraph build_similarity_graph(const EmbeddingMatrix& embeddings,
                                       const KnnConfig& config,
                                       std::size_t exact_threshold, ThreadPool* pool) {
  std::vector<NeighborList> lists;
  if (embeddings.rows() <= exact_threshold) {
    lists = brute_force_knn(embeddings, config, pool);
  } else {
    IvfIndex index(embeddings, config, pool);
    lists = index.knn_graph(pool);
  }
  return SimilarityGraph::from_lists(lists).symmetrized();
}

}  // namespace subsel::graph
