// 2-D PCA projection (power iteration with deflation).
//
// Stand-in for the t-SNE visualization of Figure 5 / Appendix C: we only need
// a deterministic 2-D layout to show *where* selected points fall (uniform
// spread for centralized greedy vs. local clusters for many partitions).
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "graph/embedding_matrix.h"

namespace subsel::graph {

struct Projection2D {
  std::vector<float> x;  // first principal component scores
  std::vector<float> y;  // second principal component scores
};

/// Projects all rows onto the top two principal components of the (mean-
/// centered) embedding matrix. `iterations` power-iteration steps per
/// component; deterministic given `seed`.
Projection2D pca_project_2d(const EmbeddingMatrix& embeddings,
                            std::size_t iterations = 30, std::uint64_t seed = 7);

}  // namespace subsel::graph
