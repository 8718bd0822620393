// Quantized embedding path: conversion exactness, backend bit-identity of
// the compact similarity kernels, bounded-error/bounded-recall guarantees of
// the quantized graph builds against the exact float32 builds, and the
// exact-rescore contract (edge weights of a quantized build are exact dots).
#include "graph/quantized_embedding.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <set>
#include <stdexcept>

#include "common/rng.h"
#include "common/simd.h"
#include "graph/embedding_matrix.h"
#include "graph/knn.h"
#include "graph/pca.h"

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

// ---------------------------------------------------------------------------
// Half-precision conversion.
// ---------------------------------------------------------------------------

TEST(HalfConversion, RoundTripsExactHalfValues) {
  // Every finite half value must survive half -> float -> half unchanged
  // (float holds every half exactly; float_to_half of an exact half value
  // has zero rounding error).
  for (std::uint32_t bits = 0; bits < 0x10000u; ++bits) {
    const auto h = static_cast<std::uint16_t>(bits);
    const std::uint32_t exp = (h >> 10) & 0x1Fu;
    if (exp == 31) continue;  // inf/NaN payloads are normalized, skip
    const float f = half_to_float(h);
    EXPECT_EQ(float_to_half(f), h) << "half bits " << bits;
  }
}

TEST(HalfConversion, KnownValues) {
  EXPECT_EQ(half_to_float(0x3C00), 1.0f);
  EXPECT_EQ(half_to_float(0xBC00), -1.0f);
  EXPECT_EQ(half_to_float(0x4000), 2.0f);
  EXPECT_EQ(half_to_float(0x3800), 0.5f);
  EXPECT_EQ(half_to_float(0x0000), 0.0f);
  EXPECT_EQ(half_to_float(0x0001), std::ldexp(1.0f, -24));  // min subnormal
  EXPECT_EQ(half_to_float(0x0400), std::ldexp(1.0f, -14));  // min normal
  EXPECT_EQ(half_to_float(0x7BFF), 65504.0f);               // max finite
  EXPECT_TRUE(std::isinf(half_to_float(0x7C00)));

  EXPECT_EQ(float_to_half(1.0f), 0x3C00);
  EXPECT_EQ(float_to_half(-2.0f), 0xC000);
  EXPECT_EQ(float_to_half(65504.0f), 0x7BFF);
  EXPECT_EQ(float_to_half(1e6f), 0x7C00);    // overflow -> inf
  EXPECT_EQ(float_to_half(1e-10f), 0x0000);  // underflow -> 0
  // Round-to-nearest-even: 1 + 2^-11 is exactly halfway between 1.0 and the
  // next half (1 + 2^-10); even mantissa wins.
  EXPECT_EQ(float_to_half(1.0f + std::ldexp(1.0f, -11)), 0x3C00);
  EXPECT_EQ(float_to_half(1.0f + 3 * std::ldexp(1.0f, -11)), 0x3C02);
}

TEST(HalfConversion, RelativeErrorBounded) {
  subsel::Rng rng(1234);
  for (int i = 0; i < 2000; ++i) {
    const float x = static_cast<float>(rng.uniform(-2.0, 2.0));
    const float back = half_to_float(float_to_half(x));
    // Half has an 11-bit significand: relative error <= 2^-11 for normals.
    EXPECT_NEAR(back, x, std::abs(x) * 0x1p-11f + 1e-7f);
  }
}

// ---------------------------------------------------------------------------
// QuantizedMatrix kernels.
// ---------------------------------------------------------------------------

TEST(QuantizedMatrix, Int8DequantizeBoundedError) {
  const auto m = random_normalized(40, 24, 11);
  const QuantizedMatrix q(m, EmbeddingPrecision::kInt8);
  EXPECT_EQ(q.rows(), 40u);
  EXPECT_EQ(q.dim(), 24u);
  std::vector<float> row(24);
  for (std::size_t i = 0; i < m.rows(); ++i) {
    q.dequantize(i, row);
    float max_abs = 0.0f;
    for (const float x : m.row(i)) max_abs = std::max(max_abs, std::fabs(x));
    for (std::size_t d = 0; d < 24; ++d) {
      // Symmetric int8: per-coordinate error <= scale/2 = max|x| / 254.
      EXPECT_NEAR(row[d], m.row(i)[d], max_abs / 254.0f + 1e-7f);
    }
  }
}

TEST(QuantizedMatrix, SimilarityTracksExactDot) {
  const auto m = random_normalized(60, 32, 12);
  for (const EmbeddingPrecision precision :
       {EmbeddingPrecision::kInt8, EmbeddingPrecision::kFloat16}) {
    const QuantizedMatrix q(m, precision);
    for (std::size_t i = 0; i < 20; ++i) {
      for (std::size_t j = 0; j < 20; ++j) {
        const float exact = dot(m.row(i), m.row(j));
        // Unit-norm rows: int8 error per coordinate <= max|x|/254, float16
        // <= 2^-11 relative; both comfortably under 0.02 for the dot of
        // 32-d unit vectors.
        EXPECT_NEAR(q.similarity(i, j), exact, 0.02f)
            << precision_name(precision) << " (" << i << "," << j << ")";
      }
    }
  }
}

TEST(QuantizedMatrix, BackendsBitIdentical) {
  const auto m = random_normalized(50, 37, 13);  // odd dim: tail path runs
  for (const EmbeddingPrecision precision :
       {EmbeddingPrecision::kInt8, EmbeddingPrecision::kFloat16}) {
    const QuantizedMatrix native(m, precision);
    simd::ScopedBackendOverride force(simd::Backend::kScalar);
    const QuantizedMatrix scalar(m, precision);
    EXPECT_STREQ(scalar.backend(), "scalar");
    for (std::size_t i = 0; i < m.rows(); ++i) {
      for (std::size_t j = 0; j < m.rows(); ++j) {
        EXPECT_EQ(native.similarity(i, j), scalar.similarity(i, j))
            << precision_name(precision) << " (" << i << "," << j << ")";
      }
    }
  }
}

TEST(QuantizedMatrix, ByteSizeReflectsCompression) {
  const auto m = random_normalized(100, 64, 14);
  const std::size_t float_bytes = 100 * 64 * sizeof(float);
  const QuantizedMatrix i8(m, EmbeddingPrecision::kInt8);
  const QuantizedMatrix f16(m, EmbeddingPrecision::kFloat16);
  EXPECT_LT(i8.byte_size(), float_bytes / 3);   // ~4x smaller (+ scales)
  EXPECT_EQ(f16.byte_size(), float_bytes / 2);  // exactly 2x smaller
}

// ---------------------------------------------------------------------------
// Quantized graph builds: bounded recall vs the exact build, exact weights.
// ---------------------------------------------------------------------------

double recall_against(const std::vector<NeighborList>& truth,
                      const std::vector<NeighborList>& approx) {
  std::size_t hits = 0, total = 0;
  for (std::size_t i = 0; i < truth.size(); ++i) {
    std::set<NodeId> truth_ids;
    for (const Edge& e : truth[i].edges) truth_ids.insert(e.neighbor);
    for (const Edge& e : approx[i].edges) hits += truth_ids.count(e.neighbor);
    total += truth[i].edges.size();
  }
  return static_cast<double>(hits) / static_cast<double>(total);
}

/// Every edge of a quantized build must carry the exact float32 similarity
/// (clamped) — the rescore contract.
void expect_exact_weights(const std::vector<NeighborList>& lists,
                          const EmbeddingMatrix& m) {
  for (std::size_t i = 0; i < lists.size(); ++i) {
    for (const Edge& e : lists[i].edges) {
      const float exact =
          dot(m.row(i), m.row(static_cast<std::size_t>(e.neighbor)));
      EXPECT_EQ(e.weight, exact > 0.0f ? exact : 0.0f)
          << "row " << i << " edge " << e.neighbor;
    }
  }
}

TEST(QuantizedKnn, BruteForceHighRecallAndExactWeights) {
  const auto m = random_normalized(300, 24, 21);
  KnnConfig exact_config;
  exact_config.num_neighbors = 10;
  const auto exact = brute_force_knn(m, exact_config);

  for (const EmbeddingPrecision precision :
       {EmbeddingPrecision::kInt8, EmbeddingPrecision::kFloat16}) {
    KnnConfig config = exact_config;
    config.precision = precision;
    const auto quantized = brute_force_knn(m, config);
    EXPECT_GT(recall_against(exact, quantized), 0.9)
        << precision_name(precision);
    expect_exact_weights(quantized, m);
  }
}

TEST(QuantizedKnn, IvfHighRecallOnClusteredData) {
  const auto m = clustered(1500, 16, 15, 22);
  KnnConfig config;
  config.num_neighbors = 10;
  config.num_clusters = 15;
  config.num_probes = 4;
  const auto exact = brute_force_knn(m, config);

  for (const EmbeddingPrecision precision :
       {EmbeddingPrecision::kInt8, EmbeddingPrecision::kFloat16}) {
    KnnConfig qconfig = config;
    qconfig.precision = precision;
    IvfIndex index(m, qconfig);
    const auto approx = index.knn_graph();
    EXPECT_GT(recall_against(exact, approx), 0.9) << precision_name(precision);
    expect_exact_weights(approx, m);
    // A quantized index holds no float32 tiles, so it answers no outside query.
    EXPECT_THROW(index.search(m.row(0), 5, 0), std::logic_error)
        << precision_name(precision);
  }
}

TEST(QuantizedPca, ProjectionCloseToFloatProjection) {
  const auto m = clustered(400, 16, 8, 25);
  const Projection2D exact = pca_project_2d(m);
  for (const EmbeddingPrecision precision :
       {EmbeddingPrecision::kInt8, EmbeddingPrecision::kFloat16}) {
    const QuantizedMatrix q(m, precision);
    const Projection2D approx = pca_project_2d(q);
    ASSERT_EQ(approx.x.size(), exact.x.size());
    // Power iteration from the same seed on slightly-perturbed inputs: the
    // layouts must correlate strongly (sign-aligned per component).
    double dot_x = 0.0, nx_a = 0.0, nx_b = 0.0;
    double dot_y = 0.0, ny_a = 0.0, ny_b = 0.0;
    for (std::size_t i = 0; i < exact.x.size(); ++i) {
      dot_x += exact.x[i] * approx.x[i];
      nx_a += exact.x[i] * exact.x[i];
      nx_b += approx.x[i] * approx.x[i];
      dot_y += exact.y[i] * approx.y[i];
      ny_a += exact.y[i] * exact.y[i];
      ny_b += approx.y[i] * approx.y[i];
    }
    const double corr_x = std::abs(dot_x) / std::sqrt(nx_a * nx_b);
    const double corr_y = std::abs(dot_y) / std::sqrt(ny_a * ny_b);
    EXPECT_GT(corr_x, 0.99) << precision_name(precision);
    EXPECT_GT(corr_y, 0.95) << precision_name(precision);
  }
}

}  // namespace
}  // namespace subsel::graph
