// Vectorized inner-loop primitives for the ObjectiveKernel incremental
// states.
//
// The three coverage-style gain loops in this repo share one shape: walk a
// candidate's CSR edge slice, combine a contiguous premultiplied edge term
// with a gathered per-node state value, and accumulate. The primitives here
// implement that shape once per backend (portable scalar, AVX2, NEON) under a
// single arithmetic contract:
//
//  - LANE-SPLIT ACCUMULATION. Edge i of a candidate's slice (0-based within
//    the slice) accumulates into lane i mod 4; the result is
//    self_term + ((lane0 + lane1) + (lane2 + lane3)). Every backend performs
//    the same IEEE-754 operations in the same per-lane order, so gains —
//    and therefore selections and objectives — are BIT-IDENTICAL across
//    scalar/AVX2/NEON; the portable scalar backend is the reference.
//  - PREMULTIPLIED TERMS. Edge weights arrive premultiplied by the covered
//    node's weight (pw[e] = fl(weight[u] * w_e)), and per-node state is kept
//    in the same premultiplied space (weighted cover, weighted residual).
//    This removes the per-edge multiply entirely: the loops are one gather,
//    one subtract/min, one max, one add per element — no FMA, so no
//    fp-contraction hazard, and monotone ops (max/min, multiply by a
//    non-negative constant) commute with the premultiplication exactly.
//
// Dispatch is by function-pointer table chosen once per state construction
// from simd::active_backend(); the AVX2 bodies are compiled per-function with
// target attributes so the binary stays baseline x86-64.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/simd.h"

namespace subsel::core::ksimd {

/// Accumulator lanes per gain loop; fixed by the arithmetic contract (AVX2
/// register width in doubles), not by the machine the code runs on.
inline constexpr std::size_t kLanes = 4;

/// Facility-location gain body: self_term + Σ_e max(0.0, pw[e] - wcover[nbr[e]])
/// in lane-split order. `nbr`/`pw` point at the candidate's edge slice.
using CoverGainFn = double (*)(const std::uint32_t* nbr, const double* pw,
                               std::size_t count, const double* wcover,
                               double self_term);

/// Saturated-coverage gain body:
/// self_term + Σ_e min(pw[e], max(resid[nbr[e]], 0.0)) in lane-split order.
using ResidGainFn = double (*)(const std::uint32_t* nbr, const double* pw,
                               std::size_t count, const double* resid,
                               double self_term);

struct KernelSimdOps {
  CoverGainFn cover_gain;
  ResidGainFn resid_gain;
  const char* name;  // backend_name of the backend these ops implement
};

/// The op table for `backend`; requests for a backend this build cannot run
/// (e.g. NEON on x86) resolve to the scalar table.
const KernelSimdOps& ops_for(simd::Backend backend) noexcept;

/// Prefetch a candidate's SoA edge slice into cache. gains_batch
/// implementations call this a couple of candidates ahead so the slice
/// streams overlap the current candidate's arithmetic instead of serializing
/// in front of it — batched gain evaluation walks candidates in random order,
/// so without this both scalar and vector backends stall on the same DRAM
/// latency and the vector win disappears. Purely a timing hint: results are
/// unaffected.
inline void prefetch_edge_slice(const std::uint32_t* nbr, const double* pw,
                                std::size_t count) noexcept {
#if defined(__GNUC__) || defined(__clang__)
  for (std::size_t e = 0; e < count; e += 8) {
    __builtin_prefetch(pw + e);
    __builtin_prefetch(nbr + e);
  }
#else
  (void)nbr;
  (void)pw;
  (void)count;
#endif
}

/// ops_for(simd::active_backend()).
inline const KernelSimdOps& active_ops() noexcept {
  return ops_for(simd::active_backend());
}

}  // namespace subsel::core::ksimd
