// SIMD backend parity suite: the vectorized kernel backends (AVX2/NEON,
// whatever the host supports) must produce BIT-IDENTICAL gains, selections,
// and objectives to the portable scalar backend — the whole design contract
// of core/kernel_simd.h (lane-split accumulation, premultiplied/residual
// state spaces shared by every backend). Covers the forcing seam
// (ScopedBackendOverride around a whole solve or one state), the raw kernel
// primitives across awkward lengths, and the adversarial shapes the ISSUE
// calls out: degrees below the vector width, empty subproblems, and
// duplicate/tied gains.
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "../testing/constraint_oracle.h"
#include "../testing/property.h"
#include "../testing/test_instances.h"
#include "common/rng.h"
#include "common/simd.h"
#include "core/coverage_kernel.h"
#include "core/facility_location_kernel.h"
#include "core/greedy.h"
#include "core/kernel_simd.h"
#include "core/objective_kernel.h"

namespace subsel::core {
namespace {

using subsel::testing::Instance;
using subsel::testing::random_instance;

TEST(SimdBackend, NamesAndOverrideRoundTrip) {
  const simd::Backend detected = simd::detected_backend();
  EXPECT_STREQ(simd::backend_name(simd::Backend::kScalar), "scalar");
  EXPECT_STREQ(simd::backend_name(simd::Backend::kAvx2), "avx2");
  EXPECT_STREQ(simd::backend_name(simd::Backend::kNeon), "neon");

  {
    simd::ScopedBackendOverride force_scalar(simd::Backend::kScalar);
    EXPECT_EQ(simd::active_backend(), simd::Backend::kScalar);
    {
      // Nested override back to the widest available backend.
      simd::ScopedBackendOverride force_native(detected);
      EXPECT_EQ(simd::active_backend(), detected);
    }
    EXPECT_EQ(simd::active_backend(), simd::Backend::kScalar);
  }
  // A non-scalar request never selects an unsupported backend.
  {
    simd::ScopedBackendOverride force_wide(simd::Backend::kAvx2);
    EXPECT_EQ(simd::active_backend(), detected);
  }
}

TEST(SimdBackend, EnvFlagParsing) {
  ::setenv("SUBSEL_SIMD_TEST_FLAG", "yes", 1);
  EXPECT_TRUE(simd::env_flag_enabled("SUBSEL_SIMD_TEST_FLAG"));
  ::setenv("SUBSEL_SIMD_TEST_FLAG", "TRUE", 1);
  EXPECT_TRUE(simd::env_flag_enabled("SUBSEL_SIMD_TEST_FLAG"));
  ::setenv("SUBSEL_SIMD_TEST_FLAG", "0", 1);
  EXPECT_FALSE(simd::env_flag_enabled("SUBSEL_SIMD_TEST_FLAG"));
  ::setenv("SUBSEL_SIMD_TEST_FLAG", "off", 1);
  EXPECT_FALSE(simd::env_flag_enabled("SUBSEL_SIMD_TEST_FLAG"));
  ::unsetenv("SUBSEL_SIMD_TEST_FLAG");
  EXPECT_FALSE(simd::env_flag_enabled("SUBSEL_SIMD_TEST_FLAG"));
}

// ---------------------------------------------------------------------------
// Raw primitive parity: the active backend's cover/resid kernels must
// reproduce the scalar backend bit-for-bit on every length around the vector
// width, including 0 and non-multiples.
// ---------------------------------------------------------------------------

TEST(SimdKernelPrimitives, ActiveBackendMatchesScalarBitForBit) {
  const ksimd::KernelSimdOps& scalar = ksimd::ops_for(simd::Backend::kScalar);
  const ksimd::KernelSimdOps& active = ksimd::ops_for(simd::detected_backend());

  Rng rng(90001);
  const std::size_t state_size = 64;
  std::vector<double> state(state_size);
  for (double& v : state) v = rng.uniform() * 2.0 - 0.5;  // some negatives

  for (const std::size_t count :
       {std::size_t{0}, std::size_t{1}, std::size_t{2}, std::size_t{3},
        std::size_t{4}, std::size_t{5}, std::size_t{7}, std::size_t{8},
        std::size_t{9}, std::size_t{15}, std::size_t{16}, std::size_t{17},
        std::size_t{31}, std::size_t{33}}) {
    std::vector<std::uint32_t> nbr(count);
    std::vector<double> pw(count);
    for (std::size_t e = 0; e < count; ++e) {
      nbr[e] = static_cast<std::uint32_t>(rng() % state_size);
      pw[e] = rng.uniform();  // premultiplied weights are always >= 0
    }
    const double self_term = rng.uniform();

    EXPECT_EQ(active.cover_gain(nbr.data(), pw.data(), count, state.data(),
                                self_term),
              scalar.cover_gain(nbr.data(), pw.data(), count, state.data(),
                                self_term))
        << "cover_gain count=" << count;
    EXPECT_EQ(active.resid_gain(nbr.data(), pw.data(), count, state.data(),
                                self_term),
              scalar.resid_gain(nbr.data(), pw.data(), count, state.data(),
                                self_term))
        << "resid_gain count=" << count;
  }
}

// ---------------------------------------------------------------------------
// Whole-solve parity: native backend vs forced-scalar, across kernels.
// ---------------------------------------------------------------------------

/// All three built-in kernels over one ground set.
struct KernelSet {
  PairwiseKernel pairwise;
  FacilityLocationKernel facility_location;
  SaturatedCoverageKernel coverage;

  explicit KernelSet(const graph::GroundSet& ground_set)
      : pairwise(ground_set, ObjectiveParams::from_alpha(0.8)),
        facility_location(ground_set, {}),
        coverage(ground_set, [] {
          SaturatedCoverageParams params;
          params.saturation = 0.8;
          return params;
        }()) {}

  std::vector<const ObjectiveKernel*> all() const {
    return {&pairwise, &facility_location, &coverage};
  }
};

/// solve_partition with every incremental state pinned to the portable
/// scalar backend: states bind the backend active at construction, so the
/// override spans the whole solve.
template <typename... Args>
GreedyResult solve_partition_scalar(Args&&... args) {
  simd::ScopedBackendOverride force_scalar(simd::Backend::kScalar);
  return solve_partition(std::forward<Args>(args)...);
}

void expect_backends_agree(const graph::GroundSet& ground_set,
                           std::span<const NodeId> members, std::size_t k) {
  const KernelSet kernels(ground_set);
  for (const ObjectiveKernel* kernel : kernels.all()) {
    SubproblemArena native_arena;
    const GreedyResult native =
        solve_partition(*kernel, members, k, nullptr, native_arena);
    SubproblemArena scalar_arena;
    const GreedyResult scalar =
        solve_partition_scalar(*kernel, members, k, nullptr, scalar_arena);
    EXPECT_EQ(native.selected, scalar.selected) << kernel->name();
    EXPECT_EQ(native.objective, scalar.objective) << kernel->name();
  }
}

TEST(SimdSolveParity, RandomInstances) {
  for (std::uint64_t seed : {91001ULL, 91002ULL, 91003ULL}) {
    const Instance instance = random_instance(160, 6, seed);
    const auto ground_set = instance.ground_set();
    std::vector<NodeId> members;
    for (std::size_t i = 0; i < 160; i += 2) {
      members.push_back(static_cast<NodeId>(i));
    }
    expect_backends_agree(ground_set, members, members.size() / 3);
  }
}

TEST(SimdSolveParity, DegreesBelowVectorWidth) {
  // Max degree 1-3: every neighborhood slice is shorter than the 4-wide
  // kernel loop, so only the tail path runs.
  for (const std::size_t degree : {std::size_t{1}, std::size_t{2}, std::size_t{3}}) {
    const Instance instance = random_instance(90, degree, 91100 + degree);
    const auto ground_set = instance.ground_set();
    std::vector<NodeId> members(90);
    for (std::size_t i = 0; i < 90; ++i) members[i] = static_cast<NodeId>(i);
    expect_backends_agree(ground_set, members, 20);
  }
}

TEST(SimdSolveParity, EmptyAndDegenerateSubproblems) {
  const Instance instance = random_instance(40, 4, 91200);
  const auto ground_set = instance.ground_set();
  const KernelSet kernels(ground_set);
  for (const ObjectiveKernel* kernel : kernels.all()) {
    SubproblemArena arena;
    const GreedyResult empty = solve_partition_scalar(
        *kernel, std::span<const NodeId>{}, 5, nullptr, arena);
    EXPECT_TRUE(empty.selected.empty()) << kernel->name();

    const std::vector<NodeId> one = {7};
    const GreedyResult single =
        solve_partition_scalar(*kernel, one, 3, nullptr, arena);
    EXPECT_EQ(single.selected, one) << kernel->name();
  }
}

TEST(SimdSolveParity, DuplicateAndTiedGains) {
  // Constant weights and utilities: every candidate ties with every other,
  // so one flipped ulp anywhere in a vectorized sum would reorder picks.
  const std::size_t n = 120;
  Instance instance = random_instance(n, 5, 91300);
  std::vector<graph::NeighborList> lists(n);
  for (std::size_t v = 0; v < n; ++v) {
    for (const graph::Edge& e : instance.graph.neighbors(static_cast<NodeId>(v))) {
      lists[v].edges.push_back(graph::Edge{e.neighbor, 0.5f});
    }
  }
  instance.graph = graph::SimilarityGraph::from_lists(lists).symmetrized();
  std::fill(instance.utilities.begin(), instance.utilities.end(), 1.0);
  const auto ground_set = instance.ground_set();
  std::vector<NodeId> members(n);
  for (std::size_t i = 0; i < n; ++i) members[i] = static_cast<NodeId>(i);
  expect_backends_agree(ground_set, members, n / 3);
}

// ---------------------------------------------------------------------------
// State-level parity + backend reporting.
// ---------------------------------------------------------------------------

TEST(SimdStateParity, GainsIdenticalUnderForcedScalarState) {
  const Instance instance = random_instance(100, 6, 91400);
  const auto ground_set = instance.ground_set();
  const KernelSet kernels(ground_set);
  std::vector<NodeId> members;
  for (std::size_t i = 0; i < 100; i += 2) {
    members.push_back(static_cast<NodeId>(i));
  }

  for (const ObjectiveKernel* kernel : kernels.all()) {
    if (kernel->pairwise_params() != nullptr) continue;  // keeps no state
    SubproblemArena native_arena;
    Subproblem& native_sub = materialize_subproblem_topology(
        ground_set, members, native_arena);
    const std::unique_ptr<KernelIncrementalState> native =
        kernel->make_incremental_state(native_arena);
    native->reset(native_sub, nullptr);

    SubproblemArena scalar_arena;
    Subproblem& scalar_sub = materialize_subproblem_topology(
        ground_set, members, scalar_arena);
    std::unique_ptr<KernelIncrementalState> scalar;
    {
      // The state binds its backend at construction, so the override only
      // needs to span make_incremental_state.
      simd::ScopedBackendOverride force(simd::Backend::kScalar);
      scalar = kernel->make_incremental_state(scalar_arena);
    }
    scalar->reset(scalar_sub, nullptr);

    EXPECT_STREQ(scalar->backend(), "scalar") << kernel->name();
    EXPECT_STREQ(native->backend(), simd::active_backend_name())
        << kernel->name();

    const std::size_t n = native_sub.size();
    std::vector<std::uint32_t> all(n);
    for (std::uint32_t i = 0; i < n; ++i) all[i] = i;
    std::vector<double> native_gains(n), scalar_gains(n);
    for (const std::uint32_t pick : {0u, 5u, 17u, 31u}) {
      native->gains_batch(all, native_gains);
      scalar->gains_batch(all, scalar_gains);
      for (std::uint32_t v = 0; v < n; ++v) {
        EXPECT_EQ(native_gains[v], scalar_gains[v])
            << kernel->name() << " local " << v;
        EXPECT_EQ(native->gain(v), scalar->gain(v))
            << kernel->name() << " local " << v;
      }
      native->select(pick);
      scalar->select(pick);
    }
  }
}

// ---------------------------------------------------------------------------
// Randomized parity: the PR-9 suite above pins adversarial shapes by hand;
// this one drives the pairwise kernel through the property harness so every
// run sweeps fresh graphs, member subsets, and budgets — with seeds printed
// and auto-shrunk on failure. Gains, picks, and objectives must match the
// forced-scalar engine bit-for-bit, constrained or not.
// ---------------------------------------------------------------------------

TEST(SimdSolveParity, RandomizedPairwiseScalarVsNativeBitIdentity) {
  subsel::testing::check_property(
      "pairwise scalar-vs-native bit identity", 120,
      [](std::uint64_t seed, double scale) -> std::optional<std::string> {
        const std::size_t n = subsel::testing::scaled(140, scale, 12);
        Rng rng(seed ^ 0x51fd);
        const std::size_t degree = 1 + rng.uniform_index(7);
        const Instance instance = random_instance(n, degree, seed);
        const auto ground_set = instance.ground_set();
        const PairwiseKernel kernel(
            ground_set, ObjectiveParams::from_alpha(0.5 + 0.4 * rng.uniform()));

        // Random member subset (never empty) and budget.
        std::vector<NodeId> members;
        for (std::size_t i = 0; i < n; ++i) {
          if (rng.uniform() < 0.7) members.push_back(static_cast<NodeId>(i));
        }
        if (members.empty()) members.push_back(0);
        const std::size_t k = 1 + rng.uniform_index(members.size());

        SubproblemArena native_arena;
        const GreedyResult native =
            solve_partition(kernel, members, k, nullptr, native_arena);
        SubproblemArena scalar_arena;
        const GreedyResult scalar =
            solve_partition_scalar(kernel, members, k, nullptr, scalar_arena);
        if (native.selected != scalar.selected) return "selections diverged";
        if (native.objective != scalar.objective) {
          return "objectives diverged by " +
                 std::to_string(native.objective - scalar.objective);
        }
        return std::nullopt;
      });
}

TEST(SimdSolveParity, RandomizedConstrainedSolvesStayBitIdentical) {
  // The constraint seam must not disturb backend parity: the tracker only
  // filters acceptances, so native and forced-scalar runs still walk the
  // same gain sequence and must pick the same feasible elements.
  subsel::testing::check_property(
      "constrained scalar-vs-native bit identity", 100,
      [](std::uint64_t seed, double scale) -> std::optional<std::string> {
        const std::size_t n = subsel::testing::scaled(60, scale, 10);
        const Instance instance = random_instance(n, 4, seed);
        const auto ground_set = instance.ground_set();
        const PairwiseKernel kernel(ground_set,
                                    ObjectiveParams::from_alpha(0.9));
        Rng rng(seed ^ 0x51dc);
        const ConstraintSet constraints =
            subsel::testing::random_constraints(n, rng);
        std::vector<NodeId> members(n);
        for (std::size_t i = 0; i < n; ++i) members[i] = static_cast<NodeId>(i);
        const std::size_t k = 2 + rng.uniform_index(n / 2);

        SubproblemArena native_arena;
        const GreedyResult native =
            solve_partition(kernel, members, k, nullptr, native_arena, nullptr,
                            nullptr, &constraints);
        SubproblemArena scalar_arena;
        const GreedyResult scalar =
            solve_partition_scalar(kernel, members, k, nullptr, scalar_arena,
                                   nullptr, nullptr, &constraints);
        if (native.selected != scalar.selected) return "selections diverged";
        if (native.objective != scalar.objective) return "objectives diverged";
        return std::nullopt;
      });
}

TEST(SimdKernelPrimitives, RandomizedLengthsMatchScalarBitForBit) {
  const ksimd::KernelSimdOps& scalar = ksimd::ops_for(simd::Backend::kScalar);
  const ksimd::KernelSimdOps& active = ksimd::ops_for(simd::detected_backend());
  subsel::testing::check_property(
      "kernel primitive bit identity at random lengths", 150,
      [&](std::uint64_t seed, double scale) -> std::optional<std::string> {
        Rng rng(seed);
        const std::size_t state_size =
            subsel::testing::scaled(96, scale, 8);
        std::vector<double> state(state_size);
        for (double& v : state) v = rng.uniform() * 2.0 - 0.5;
        const std::size_t count = rng.uniform_index(2 * state_size);
        std::vector<std::uint32_t> nbr(count);
        std::vector<double> pw(count);
        for (std::size_t e = 0; e < count; ++e) {
          nbr[e] = static_cast<std::uint32_t>(rng.uniform_index(state_size));
          pw[e] = rng.uniform();
        }
        const double self_term = rng.uniform();

        const double cover_native =
            active.cover_gain(nbr.data(), pw.data(), count, state.data(),
                              self_term);
        const double cover_scalar =
            scalar.cover_gain(nbr.data(), pw.data(), count, state.data(),
                              self_term);
        if (cover_native != cover_scalar) {
          return "cover_gain diverged at count " + std::to_string(count);
        }
        const double resid_native =
            active.resid_gain(nbr.data(), pw.data(), count, state.data(),
                              self_term);
        const double resid_scalar =
            scalar.resid_gain(nbr.data(), pw.data(), count, state.data(),
                              self_term);
        if (resid_native != resid_scalar) {
          return "resid_gain diverged at count " + std::to_string(count);
        }
        return std::nullopt;
      });
}

TEST(SimdBackendReporting, CapsEchoTheActiveBackend) {
  const Instance instance = random_instance(30, 4, 91500);
  const auto ground_set = instance.ground_set();
  const KernelSet kernels(ground_set);
  for (const ObjectiveKernel* kernel : kernels.all()) {
    EXPECT_STREQ(kernel->caps().simd_backend, simd::active_backend_name())
        << kernel->name();
  }
  simd::ScopedBackendOverride force(simd::Backend::kScalar);
  for (const ObjectiveKernel* kernel : kernels.all()) {
    EXPECT_STREQ(kernel->caps().simd_backend, "scalar") << kernel->name();
  }
}

}  // namespace
}  // namespace subsel::core
