#include "graph/pca.h"

#include <algorithm>
#include <cmath>

#include "common/rng.h"

namespace subsel::graph {
namespace {

/// One power-iteration estimate of the dominant eigenvector of X^T X for the
/// centered data X, with `remove` (if non-empty) deflated out of each row.
std::vector<double> dominant_component(const EmbeddingMatrix& embeddings,
                                       const std::vector<double>& mean,
                                       const std::vector<double>& remove,
                                       std::size_t iterations, Rng& rng) {
  const std::size_t dim = embeddings.dim();
  std::vector<double> direction(dim);
  for (double& v : direction) v = rng.normal();
  std::vector<double> next(dim);

  for (std::size_t iter = 0; iter < iterations; ++iter) {
    std::fill(next.begin(), next.end(), 0.0);
    for (std::size_t i = 0; i < embeddings.rows(); ++i) {
      const auto row = embeddings.row(i);
      double score = 0.0;
      double removed = 0.0;
      for (std::size_t d = 0; d < dim; ++d) {
        const double centered = row[d] - mean[d];
        score += centered * direction[d];
        if (!remove.empty()) removed += centered * remove[d];
      }
      for (std::size_t d = 0; d < dim; ++d) {
        double centered = row[d] - mean[d];
        if (!remove.empty()) centered -= removed * remove[d];
        next[d] += score * centered;
      }
    }
    double norm = 0.0;
    for (double v : next) norm += v * v;
    norm = std::sqrt(norm);
    if (norm < 1e-12) break;
    for (std::size_t d = 0; d < dim; ++d) direction[d] = next[d] / norm;
  }
  return direction;
}

}  // namespace

Projection2D pca_project_2d(const EmbeddingMatrix& embeddings, std::size_t iterations,
                            std::uint64_t seed) {
  const std::size_t n = embeddings.rows();
  const std::size_t dim = embeddings.dim();
  std::vector<double> mean(dim, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    const auto row = embeddings.row(i);
    for (std::size_t d = 0; d < dim; ++d) mean[d] += row[d];
  }
  if (n > 0) {
    for (double& v : mean) v /= static_cast<double>(n);
  }

  Rng rng(seed);
  const auto pc1 = dominant_component(embeddings, mean, {}, iterations, rng);
  const auto pc2 = dominant_component(embeddings, mean, pc1, iterations, rng);

  Projection2D projection;
  projection.x.resize(n);
  projection.y.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto row = embeddings.row(i);
    double sx = 0.0, sy = 0.0, s1 = 0.0;
    for (std::size_t d = 0; d < dim; ++d) {
      const double centered = row[d] - mean[d];
      s1 += centered * pc1[d];
    }
    for (std::size_t d = 0; d < dim; ++d) {
      const double centered = row[d] - mean[d];
      sx += centered * pc1[d];
      sy += (centered - s1 * pc1[d]) * pc2[d];
    }
    projection.x[i] = static_cast<float>(sx);
    projection.y[i] = static_cast<float>(sy);
  }
  return projection;
}

}  // namespace subsel::graph
