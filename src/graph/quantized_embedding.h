// Quantized embedding storage + vectorized distance kernels for the graph
// build (the second prong of the SIMD/data-layout pass).
//
// The kNN and PCA build paths spend nearly all their time in row-vs-row
// dot products over float32 embeddings. This module stores rows in one of
// two compact formats and scores them with backend-dispatched kernels:
//
//  - int8: per-row symmetric quantization, q = round(x / scale) with
//    scale = max|x| / 127. A dot product is an INTEGER dot (exact — every
//    backend produces the same int32) finished by one float multiply with
//    fl(scale_i · scale_j), so int8 similarities are bit-identical across
//    scalar and AVX2. 4x smaller rows, and the AVX2 path
//    (cvtepi8_epi16 + madd_epi16) retires 16 products per instruction.
//  - float16 (IEEE binary16): stored as raw half bits, converted exactly to
//    float32 on load (half→float is lossless) and accumulated in an 8-lane
//    split — lane i mod 8, reduced ((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7)) —
//    mirrored by the AVX2 path (vcvtph2ps + 8-wide mul/add), so float16
//    similarities are also bit-identical across backends. 2x smaller rows.
//
// Backend choice follows common/simd.h (SUBSEL_FORCE_SCALAR and
// ScopedBackendOverride included) and is captured once per QuantizedMatrix
// at construction; aarch64 currently uses the portable scalar kernels.
//
// Quantization changes WHICH neighbors a build ranks highest, never the
// final edge weights the selection consumes: the graph-build callers rescore
// the chosen edges with the exact float32 dot (see knn.cpp), so
// quantization error is bounded-recall, not bounded-weight. The error of the
// quantized scores themselves is bounded per coordinate by scale/2 (int8,
// ~0.4% of the row's max coordinate) and by half-precision rounding
// (2^-11 relative) for float16 — tests hold recall against the exact build.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/simd.h"
#include "graph/embedding_matrix.h"

namespace subsel::graph {

/// How graph-build embeddings are stored and scored. kFloat32 means "no
/// quantization" — the exact float path used everywhere before this pass.
enum class EmbeddingPrecision : std::uint8_t {
  kFloat32 = 0,
  kFloat16 = 1,
  kInt8 = 2,
};

/// Stable lowercase name: "float32", "float16", "int8".
const char* precision_name(EmbeddingPrecision precision) noexcept;

/// Exact IEEE binary16 → binary32 conversion (every half value is exactly
/// representable in float; subnormals and inf/NaN included).
float half_to_float(std::uint16_t half) noexcept;

/// IEEE binary32 → binary16, round-to-nearest-even, overflow to ±inf.
std::uint16_t float_to_half(float value) noexcept;

/// Compact row store + similarity kernels for one precision. Rows correspond
/// 1:1 to the source EmbeddingMatrix rows. Not constructible with kFloat32 —
/// callers keep using the EmbeddingMatrix directly for the exact path.
class QuantizedMatrix {
 public:
  QuantizedMatrix() = default;
  /// Quantizes every row of `source`. The conversion itself is shared scalar
  /// code, so the stored bits are identical no matter which backend later
  /// scores them.
  QuantizedMatrix(const EmbeddingMatrix& source, EmbeddingPrecision precision);

  std::size_t rows() const noexcept { return rows_; }
  std::size_t dim() const noexcept { return dim_; }
  bool empty() const noexcept { return rows_ == 0; }
  EmbeddingPrecision precision() const noexcept { return precision_; }

  /// Quantized cosine similarity between stored rows i and j. Bit-identical
  /// across backends (see file header).
  float similarity(std::size_t i, std::size_t j) const noexcept {
    return similarity_to(i, *this, j);
  }

  /// Cross-matrix variant: row i of *this against row j of `other` (same
  /// precision and dim required — the IVF assign step scoring points against
  /// re-quantized centroids).
  float similarity_to(std::size_t i, const QuantizedMatrix& other,
                      std::size_t j) const noexcept;

  /// Reconstructs row i as float32 into `out` (size dim()).
  void dequantize(std::size_t i, std::span<float> out) const noexcept;

  std::size_t byte_size() const noexcept {
    return i8_data_.size() * sizeof(std::int8_t) +
           f16_data_.size() * sizeof(std::uint16_t) +
           scale_.size() * sizeof(float);
  }

  /// Name of the backend the similarity kernels bound at construction.
  const char* backend() const noexcept;

 private:
  std::size_t rows_ = 0;
  std::size_t dim_ = 0;
  EmbeddingPrecision precision_ = EmbeddingPrecision::kFloat32;
  const void* ops_ = nullptr;             // backend op table (internal type)
  std::vector<std::int8_t> i8_data_;      // int8 rows (row-major)
  std::vector<float> scale_;              // per-row dequantization scale
  std::vector<std::uint16_t> f16_data_;   // half-bits rows (row-major)
};

}  // namespace subsel::graph
