// Property tests for the paper's theory, swept over randomized instances
// with parameterized gtest:
//   - Section 3: pairwise functions are always submodular; the Appendix-A
//     offset makes them monotone.
//   - Lemmas 4.3/4.4: exact bounding never mislabels a point of the optimal
//     subset (safety, checked against brute force).
//   - Exact bounding + greedy completion is a 1/2-approximation (Sec. 4.3).
//   - Theorem 4.6: approximate bounding with sampling probability p, then
//     greedy completion, achieves f(S) >= f(S*) / (2(1 + gamma(1 - p^2))).
//   - Greedy implementations agree: Algorithm 2 == naive Algorithm 1 ==
//     lazy greedy, and all achieve (1 - 1/e) against brute force.
//   - Δ schedules satisfy the Δ(|V|, r, r, k) = k contract.
#include <gtest/gtest.h>

#include <cmath>

#include "../testing/naive_greedy.h"
#include "../testing/test_instances.h"
#include "baselines/baselines.h"
#include "core/bounding.h"
#include "core/distributed_greedy.h"
#include "core/greedy.h"
#include "core/selection_pipeline.h"

namespace subsel::core {
namespace {

using subsel::testing::Instance;
using subsel::testing::brute_force_optimum;
using subsel::testing::naive_greedy;
using subsel::testing::random_instance;

// ---------------------------------------------------------------------------
// Submodularity and monotonicity (Section 3, Appendix A)

class SubmodularitySweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SubmodularitySweep, DiminishingReturnsOnRandomChains) {
  // For random B ⊆ A and e ∉ A: gain(e | A) <= gain(e | B).
  const std::uint64_t seed = GetParam();
  const Instance instance = random_instance(40, 5, seed);
  const auto ground_set = instance.ground_set();
  PairwiseObjective objective(ground_set, ObjectiveParams::from_alpha(0.5));

  Rng rng(seed * 31 + 7);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<std::uint8_t> small(40, 0), large(40, 0);
    for (std::size_t i = 0; i < 40; ++i) {
      const double coin = rng.uniform();
      if (coin < 0.25) {
        small[i] = large[i] = 1;  // in B (hence in A)
      } else if (coin < 0.55) {
        large[i] = 1;  // in A only
      }
    }
    const auto e = static_cast<NodeId>(rng.uniform_index(40));
    if (large[static_cast<std::size_t>(e)] != 0) continue;
    EXPECT_LE(objective.marginal_gain(large, e),
              objective.marginal_gain(small, e) + 1e-12)
        << "seed " << seed << " trial " << trial;
  }
}

TEST_P(SubmodularitySweep, MonotoneAfterAppendixAOffset) {
  // With u'(v) = u(v) + delta, adding any element never decreases f.
  const std::uint64_t seed = GetParam();
  Instance instance = random_instance(40, 6, seed, /*max_weight=*/1.0,
                                      /*max_utility=*/0.3);  // pairwise-heavy
  const auto base_ground_set = instance.ground_set();
  PairwiseObjective base(base_ground_set, ObjectiveParams::from_alpha(0.3));
  const double delta = base.monotonicity_offset();

  Instance shifted = instance;
  for (double& u : shifted.utilities) u += delta;
  const auto ground_set = shifted.ground_set();
  PairwiseObjective objective(ground_set, ObjectiveParams::from_alpha(0.3));

  Rng rng(seed * 17 + 3);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<std::uint8_t> membership(40, 0);
    for (auto& bit : membership) bit = rng.uniform() < 0.4 ? 1 : 0;
    const auto e = static_cast<NodeId>(rng.uniform_index(40));
    if (membership[static_cast<std::size_t>(e)] != 0) continue;
    EXPECT_GE(objective.marginal_gain(membership, e), -1e-12)
        << "seed " << seed << " trial " << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SubmodularitySweep,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

// ---------------------------------------------------------------------------
// Bounding safety and approximation (Lemmas 4.3/4.4, Sec. 4.3, Theorem 4.6)

class BoundingTheorySweep
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, double>> {};

TEST_P(BoundingTheorySweep, ExactBoundingNeverMislabelsOptimalPoints) {
  const auto [seed, alpha] = GetParam();
  const Instance instance = random_instance(14, 3, seed);
  const auto ground_set = instance.ground_set();
  const auto params = ObjectiveParams::from_alpha(alpha);

  for (const std::size_t k : {3u, 7u, 11u}) {
    std::vector<NodeId> optimal;
    brute_force_optimum(ground_set, params, k, &optimal);

    const auto result = bound(PairwiseKernel(ground_set, params), k, BoundingConfig{});
    for (NodeId v = 0; v < 14; ++v) {
      const bool in_optimal = std::binary_search(optimal.begin(), optimal.end(), v);
      if (result.state.is_selected(v)) {
        EXPECT_TRUE(in_optimal) << "k=" << k << " grew non-optimal " << v;
      }
      if (result.state.is_discarded(v)) {
        EXPECT_FALSE(in_optimal) << "k=" << k << " shrank optimal " << v;
      }
    }
  }
}

TEST_P(BoundingTheorySweep, ExactBoundingPlusGreedyIsHalfApproximation) {
  const auto [seed, alpha] = GetParam();
  const Instance instance = random_instance(14, 3, seed + 100);
  const auto ground_set = instance.ground_set();
  const auto params = ObjectiveParams::from_alpha(alpha);
  const std::size_t k = 5;
  const double optimum = brute_force_optimum(ground_set, params, k);

  SelectionPipelineConfig config;
  config.bounding.sampling = BoundingSampling::kNone;
  config.greedy.num_machines = 1;
  config.greedy.num_rounds = 1;
  const auto result = select_subset(PairwiseKernel(ground_set, params), k, config);
  EXPECT_GE(result.objective, 0.5 * optimum - 1e-9) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndAlphas, BoundingTheorySweep,
    ::testing::Combine(::testing::Values(11u, 12u, 13u, 14u),
                       ::testing::Values(0.9, 0.5)));

class Theorem46Sweep
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, double>> {};

TEST_P(Theorem46Sweep, ApproximateBoundingMeetsTheGuarantee) {
  // f(S) >= f(S*) / (2 (1 + gamma (1 - p^2))), gamma = max Umax(v)/Umin(v)
  // at the start. Utilities are kept dominant so gamma stays positive and
  // finite (the theorem's precondition Umin > 0).
  const auto [seed, p] = GetParam();
  Instance instance = random_instance(14, 3, seed, /*max_weight=*/0.2,
                                      /*max_utility=*/2.0);
  const auto params = ObjectiveParams::from_alpha(0.9);
  {
    // Shift utilities by the Appendix-A offset so Umin(v) >= u_orig(v) > 0
    // for every v — the theorem's precondition — while gamma stays finite.
    const auto raw_ground_set = instance.ground_set();
    const double delta =
        PairwiseObjective(raw_ground_set, params).monotonicity_offset();
    for (double& u : instance.utilities) u += delta;
  }
  const auto ground_set = instance.ground_set();
  const std::size_t k = 5;
  const double optimum = brute_force_optimum(ground_set, params, k);

  // gamma from the initial bounds (empty partial solution).
  std::vector<double> u_min, u_max;
  core::detail::compute_utility_bounds(ground_set, params, SelectionState(14),
                                       BoundingConfig{}, 0, u_min, u_max);
  double gamma = 1.0;
  bool gamma_valid = true;
  for (std::size_t i = 0; i < u_min.size(); ++i) {
    if (u_min[i] <= 0.0) {
      gamma_valid = false;
      break;
    }
    gamma = std::max(gamma, u_max[i] / u_min[i]);
  }
  if (!gamma_valid) GTEST_SKIP() << "instance violates Umin > 0 precondition";

  SelectionPipelineConfig config;
  config.bounding.sampling = BoundingSampling::kUniform;
  config.bounding.sample_fraction = p;
  config.bounding.seed = seed;
  config.greedy.num_machines = 1;
  config.greedy.num_rounds = 1;
  const auto result = select_subset(PairwiseKernel(ground_set, params), k, config);

  const double bound = optimum / (2.0 * (1.0 + gamma * (1.0 - p * p)));
  EXPECT_GE(result.objective, bound - 1e-9)
      << "seed " << seed << " p " << p << " gamma " << gamma;
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndSamplingRates, Theorem46Sweep,
    ::testing::Combine(::testing::Values(21u, 22u, 23u, 24u, 25u),
                       ::testing::Values(0.3, 0.7, 1.0)));

// ---------------------------------------------------------------------------
// Greedy equivalences and the (1 - 1/e) guarantee

class GreedyEquivalenceSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GreedyEquivalenceSweep, AllImplementationsAgree) {
  const std::uint64_t seed = GetParam();
  const Instance instance = random_instance(60, 5, seed);
  const auto ground_set = instance.ground_set();
  const auto params = ObjectiveParams::from_alpha(0.9);
  const std::size_t k = 12;

  const auto fast = centralized_greedy(instance.graph, instance.utilities, params, k);
  const auto naive = naive_greedy(ground_set, params, k);
  const auto lazy = baselines::lazy_greedy(PairwiseKernel(ground_set, params), k);

  EXPECT_EQ(fast.selected, naive.selected) << "seed " << seed;
  EXPECT_EQ(fast.selected, lazy.selected) << "seed " << seed;
  EXPECT_NEAR(fast.objective, naive.objective, 1e-9);
  EXPECT_NEAR(fast.objective, lazy.objective, 1e-9);
}

TEST_P(GreedyEquivalenceSweep, GreedyMeetsOneMinusOneOverE) {
  const std::uint64_t seed = GetParam();
  // Monotone regime (utility-dominant) so the Nemhauser bound applies.
  const Instance instance = random_instance(13, 3, seed, /*max_weight=*/0.3,
                                            /*max_utility=*/2.0);
  const auto ground_set = instance.ground_set();
  const auto params = ObjectiveParams::from_alpha(0.9);
  const std::size_t k = 5;
  const double optimum = brute_force_optimum(ground_set, params, k);
  const auto greedy = naive_greedy(ground_set, params, k);
  EXPECT_GE(greedy.objective, (1.0 - 1.0 / std::exp(1.0)) * optimum - 1e-9)
      << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, GreedyEquivalenceSweep,
                         ::testing::Values(31u, 32u, 33u, 34u, 35u, 36u));

// ---------------------------------------------------------------------------
// Δ schedule contract (Section 4.4)

class LinearDeltaSweep
    : public ::testing::TestWithParam<std::tuple<double, std::size_t>> {};

TEST_P(LinearDeltaSweep, LastRoundIsExactlyKAndSizesDecrease) {
  const auto [gamma, rounds] = GetParam();
  const auto delta = [gamma](std::size_t v0, std::size_t r, std::size_t round,
                             std::size_t k) {
    return linear_delta(v0, r, round, k, gamma);
  };
  for (const std::size_t v0 : {std::size_t{100}, std::size_t{5000},
                               std::size_t{1000000}}) {
    for (const std::size_t k : {std::size_t{1}, std::size_t{10}, v0 / 2, v0}) {
      EXPECT_EQ(delta(v0, rounds, rounds, k), k)
          << "gamma " << gamma << " v0 " << v0 << " k " << k;
      std::size_t previous = v0;
      for (std::size_t round = 1; round <= rounds; ++round) {
        const std::size_t target = delta(v0, rounds, round, k);
        EXPECT_GE(target, k);
        EXPECT_LE(target, std::max(previous, k))
            << "round " << round << " grew the target";
        previous = target;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(GammasAndRounds, LinearDeltaSweep,
                         ::testing::Combine(::testing::Values(0.25, 0.5, 0.75, 1.0),
                                            ::testing::Values(1u, 4u, 32u)));

}  // namespace
}  // namespace subsel::core
