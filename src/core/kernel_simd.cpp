#include "core/kernel_simd.h"

#include <algorithm>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define SUBSEL_KSIMD_HAVE_AVX2 1
#endif
#if defined(__aarch64__)
#include <arm_neon.h>
#define SUBSEL_KSIMD_HAVE_NEON 1
#endif

namespace subsel::core::ksimd {
namespace {

// ---------------------------------------------------------------------------
// Portable scalar backend. The reference arithmetic: 4 independent
// accumulator lanes, edge i of the slice into lane i mod 4, reduced as
// self + ((l0 + l1) + (l2 + l3)). The vector backends below perform exactly
// these operations in exactly this association.
// ---------------------------------------------------------------------------

double cover_gain_scalar(const std::uint32_t* nbr, const double* pw,
                         std::size_t count, const double* wcover,
                         double self_term) {
  double lanes[kLanes] = {0.0, 0.0, 0.0, 0.0};
  std::size_t e = 0;
  for (; e + kLanes <= count; e += kLanes) {
    lanes[0] += std::max(0.0, pw[e + 0] - wcover[nbr[e + 0]]);
    lanes[1] += std::max(0.0, pw[e + 1] - wcover[nbr[e + 1]]);
    lanes[2] += std::max(0.0, pw[e + 2] - wcover[nbr[e + 2]]);
    lanes[3] += std::max(0.0, pw[e + 3] - wcover[nbr[e + 3]]);
  }
  for (std::size_t lane = 0; e < count; ++e, ++lane) {
    lanes[lane] += std::max(0.0, pw[e] - wcover[nbr[e]]);
  }
  return self_term + ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3]));
}

double resid_gain_scalar(const std::uint32_t* nbr, const double* pw,
                         std::size_t count, const double* resid,
                         double self_term) {
  double lanes[kLanes] = {0.0, 0.0, 0.0, 0.0};
  std::size_t e = 0;
  for (; e + kLanes <= count; e += kLanes) {
    lanes[0] += std::min(pw[e + 0], std::max(resid[nbr[e + 0]], 0.0));
    lanes[1] += std::min(pw[e + 1], std::max(resid[nbr[e + 1]], 0.0));
    lanes[2] += std::min(pw[e + 2], std::max(resid[nbr[e + 2]], 0.0));
    lanes[3] += std::min(pw[e + 3], std::max(resid[nbr[e + 3]], 0.0));
  }
  for (std::size_t lane = 0; e < count; ++e, ++lane) {
    lanes[lane] += std::min(pw[e], std::max(resid[nbr[e]], 0.0));
  }
  return self_term + ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3]));
}

constexpr KernelSimdOps kScalarOps{cover_gain_scalar, resid_gain_scalar,
                                   "scalar"};

// ---------------------------------------------------------------------------
// AVX2 backend. Compiled per-function with target attributes so the
// translation unit (and the rest of the binary) stays baseline x86-64;
// simd::active_backend() guarantees these run only on AVX2 hardware.
// max/min lane semantics match the scalar std::max/std::min forms here
// because pw >= +0.0 and subtraction never yields -0.0, so the operand-order
// asymmetries of vmaxpd/vminpd on signed zeros cannot surface.
// ---------------------------------------------------------------------------

#if defined(SUBSEL_KSIMD_HAVE_AVX2)

__attribute__((target("avx2"))) double cover_gain_avx2(
    const std::uint32_t* nbr, const double* pw, std::size_t count,
    const double* wcover, double self_term) {
  __m256d acc = _mm256_setzero_pd();
  const __m256d zero = _mm256_setzero_pd();
  std::size_t e = 0;
  for (; e + kLanes <= count; e += kLanes) {
    const __m128i idx =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(nbr + e));
    const __m256d cov = _mm256_i32gather_pd(wcover, idx, sizeof(double));
    const __m256d w = _mm256_loadu_pd(pw + e);
    acc = _mm256_add_pd(acc, _mm256_max_pd(zero, _mm256_sub_pd(w, cov)));
  }
  alignas(32) double lanes[kLanes];
  _mm256_store_pd(lanes, acc);
  for (std::size_t lane = 0; e < count; ++e, ++lane) {
    lanes[lane] += std::max(0.0, pw[e] - wcover[nbr[e]]);
  }
  return self_term + ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3]));
}

__attribute__((target("avx2"))) double resid_gain_avx2(
    const std::uint32_t* nbr, const double* pw, std::size_t count,
    const double* resid, double self_term) {
  __m256d acc = _mm256_setzero_pd();
  const __m256d zero = _mm256_setzero_pd();
  std::size_t e = 0;
  for (; e + kLanes <= count; e += kLanes) {
    const __m128i idx =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(nbr + e));
    const __m256d r = _mm256_i32gather_pd(resid, idx, sizeof(double));
    const __m256d w = _mm256_loadu_pd(pw + e);
    acc = _mm256_add_pd(acc, _mm256_min_pd(w, _mm256_max_pd(r, zero)));
  }
  alignas(32) double lanes[kLanes];
  _mm256_store_pd(lanes, acc);
  for (std::size_t lane = 0; e < count; ++e, ++lane) {
    lanes[lane] += std::min(pw[e], std::max(resid[nbr[e]], 0.0));
  }
  return self_term + ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3]));
}

constexpr KernelSimdOps kAvx2Ops{cover_gain_avx2, resid_gain_avx2, "avx2"};

#endif  // SUBSEL_KSIMD_HAVE_AVX2

// ---------------------------------------------------------------------------
// NEON backend (baseline on aarch64): two float64x2 registers emulate the
// 4-double lane group, so lane assignment and reduction order match the
// scalar contract exactly.
// ---------------------------------------------------------------------------

#if defined(SUBSEL_KSIMD_HAVE_NEON)

inline float64x2_t gather2_f64(const double* base, const std::uint32_t* idx) {
  float64x2_t v = vdupq_n_f64(base[idx[0]]);
  return vsetq_lane_f64(base[idx[1]], v, 1);
}

double cover_gain_neon(const std::uint32_t* nbr, const double* pw,
                       std::size_t count, const double* wcover,
                       double self_term) {
  float64x2_t acc01 = vdupq_n_f64(0.0);
  float64x2_t acc23 = vdupq_n_f64(0.0);
  const float64x2_t zero = vdupq_n_f64(0.0);
  std::size_t e = 0;
  for (; e + kLanes <= count; e += kLanes) {
    const float64x2_t cov01 = gather2_f64(wcover, nbr + e);
    const float64x2_t cov23 = gather2_f64(wcover, nbr + e + 2);
    const float64x2_t w01 = vld1q_f64(pw + e);
    const float64x2_t w23 = vld1q_f64(pw + e + 2);
    acc01 = vaddq_f64(acc01, vmaxq_f64(zero, vsubq_f64(w01, cov01)));
    acc23 = vaddq_f64(acc23, vmaxq_f64(zero, vsubq_f64(w23, cov23)));
  }
  double lanes[kLanes];
  vst1q_f64(lanes + 0, acc01);
  vst1q_f64(lanes + 2, acc23);
  for (std::size_t lane = 0; e < count; ++e, ++lane) {
    lanes[lane] += std::max(0.0, pw[e] - wcover[nbr[e]]);
  }
  return self_term + ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3]));
}

double resid_gain_neon(const std::uint32_t* nbr, const double* pw,
                       std::size_t count, const double* resid,
                       double self_term) {
  float64x2_t acc01 = vdupq_n_f64(0.0);
  float64x2_t acc23 = vdupq_n_f64(0.0);
  const float64x2_t zero = vdupq_n_f64(0.0);
  std::size_t e = 0;
  for (; e + kLanes <= count; e += kLanes) {
    const float64x2_t r01 = gather2_f64(resid, nbr + e);
    const float64x2_t r23 = gather2_f64(resid, nbr + e + 2);
    const float64x2_t w01 = vld1q_f64(pw + e);
    const float64x2_t w23 = vld1q_f64(pw + e + 2);
    acc01 = vaddq_f64(acc01, vminq_f64(w01, vmaxq_f64(r01, zero)));
    acc23 = vaddq_f64(acc23, vminq_f64(w23, vmaxq_f64(r23, zero)));
  }
  double lanes[kLanes];
  vst1q_f64(lanes + 0, acc01);
  vst1q_f64(lanes + 2, acc23);
  for (std::size_t lane = 0; e < count; ++e, ++lane) {
    lanes[lane] += std::min(pw[e], std::max(resid[nbr[e]], 0.0));
  }
  return self_term + ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3]));
}

constexpr KernelSimdOps kNeonOps{cover_gain_neon, resid_gain_neon, "neon"};

#endif  // SUBSEL_KSIMD_HAVE_NEON

}  // namespace

const KernelSimdOps& ops_for(simd::Backend backend) noexcept {
  switch (backend) {
    case simd::Backend::kAvx2:
#if defined(SUBSEL_KSIMD_HAVE_AVX2)
      return kAvx2Ops;
#else
      break;
#endif
    case simd::Backend::kNeon:
#if defined(SUBSEL_KSIMD_HAVE_NEON)
      return kNeonOps;
#else
      break;
#endif
    case simd::Backend::kScalar:
      break;
  }
  return kScalarOps;
}

}  // namespace subsel::core::ksimd
