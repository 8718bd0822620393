// Runtime CPU-feature detection and backend selection for the vectorized
// kernel inner loops.
//
// Every vectorized code path in the repo (the kernel gain primitives in
// core/kernel_simd.h) dispatches through ONE process-wide backend choice
// made here:
//
//  - x86-64: `avx2` when the CPU reports AVX2 (cpuid via
//    __builtin_cpu_supports), else `scalar`. The binary itself stays
//    baseline-x86-64; the AVX2 loops are compiled per-function with target
//    attributes, so one build runs everywhere.
//  - aarch64: `neon` (baseline on AArch64).
//  - everything else: `scalar` — the portable fallback, written lane-for-lane
//    identical to the vector paths so results are bit-identical across
//    backends (the CI forced-scalar leg and the parity suite hold the vector
//    paths to it).
//
// `SUBSEL_FORCE_SCALAR=1` in the environment forces the portable fallback at
// startup — the escape hatch for debugging and the CI matrix leg. Tests use
// ScopedBackendOverride to compare backends inside one process.
#pragma once

#include <string_view>

namespace subsel::simd {

enum class Backend {
  kScalar = 0,  // portable lane-mirrored C++ fallback
  kAvx2 = 1,    // x86-64 AVX2 (256-bit, 4 doubles / 8 floats per lane group)
  kNeon = 2,    // aarch64 NEON (2x128-bit pairs emulating the 4-double group)
};

/// Stable lowercase name ("scalar", "avx2", "neon") — reported through
/// ObjectiveKernelCaps::simd_backend, SelectionReport JSON and bench JSONs.
const char* backend_name(Backend backend) noexcept;

/// What the hardware supports, ignoring any override (cpuid on x86-64,
/// compile-target on aarch64). Computed once per process.
Backend detected_backend() noexcept;

/// The backend every vectorized loop should use right now: the detected one,
/// downgraded to kScalar when SUBSEL_FORCE_SCALAR was set in the environment
/// at first use, or replaced by an active ScopedBackendOverride.
Backend active_backend() noexcept;

/// backend_name(active_backend()).
const char* active_backend_name() noexcept;

/// True when the environment variable `name` holds a truthy value ("1",
/// "true", "yes", "on"; case-insensitive). The SUBSEL_FORCE_SCALAR rule,
/// exposed for tests.
bool env_flag_enabled(const char* name) noexcept;

/// RAII backend override for tests and benches: forces active_backend() to
/// `backend` until destruction. Any non-scalar request resolves to
/// detected_backend() — the override can narrow to the portable fallback or
/// restore the native backend, never promise one the hardware lacks.
/// Not thread-safe against concurrent overrides; intended for single-threaded
/// test/bench sections that compare backends in one process.
class ScopedBackendOverride {
 public:
  explicit ScopedBackendOverride(Backend backend) noexcept;
  ~ScopedBackendOverride() noexcept;
  ScopedBackendOverride(const ScopedBackendOverride&) = delete;
  ScopedBackendOverride& operator=(const ScopedBackendOverride&) = delete;

 private:
  Backend previous_;
  bool had_previous_;
};

}  // namespace subsel::simd
