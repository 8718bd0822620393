// Threshold greedy, SieveStreaming, and SAMPLE&PRUNE — validity, quality
// against the centralized greedy reference, memory-footprint accounting, and
// the parameter behaviors their analyses predict.
#include "baselines/streaming.h"

#include <gtest/gtest.h>

#include <limits>
#include <set>

#include "../testing/naive_greedy.h"
#include "../testing/test_instances.h"
#include "baselines/baselines.h"

namespace subsel::baselines {
namespace {

using subsel::testing::Instance;
using subsel::testing::brute_force_optimum;
using subsel::testing::random_instance;

void expect_valid_subset(const std::vector<NodeId>& selected, std::size_t k,
                         std::size_t n) {
  EXPECT_EQ(selected.size(), k);
  std::set<NodeId> unique(selected.begin(), selected.end());
  EXPECT_EQ(unique.size(), selected.size());
  for (NodeId v : selected) EXPECT_LT(static_cast<std::size_t>(v), n);
}

TEST(EpsilonGuards, EveryEpsilonSolverRejectsValuesOutsideTheOpenUnitInterval) {
  // Called directly (not through the registry), the solvers still refuse an
  // ε that would hang threshold greedy, divide by log1p(0) in the sieve, or
  // cast an infinite sample size in stochastic greedy.
  const Instance instance = random_instance(30, 3, 806);
  const auto ground_set = instance.ground_set();
  const core::PairwiseKernel kernel(ground_set, ObjectiveParams::from_alpha(0.9));
  for (const double epsilon :
       {0.0, 1.0, -0.5, std::numeric_limits<double>::quiet_NaN()}) {
    EXPECT_THROW(threshold_greedy(kernel, 5, epsilon), std::invalid_argument)
        << epsilon;
    EXPECT_THROW(stochastic_greedy(kernel, 5, epsilon), std::invalid_argument)
        << epsilon;
    SieveStreamingConfig config;
    config.epsilon = epsilon;
    EXPECT_THROW(sieve_streaming(kernel, 5, config), std::invalid_argument)
        << epsilon;
  }
}

// --- threshold greedy ------------------------------------------------------

TEST(ThresholdGreedy, ProducesValidSubset) {
  const Instance instance = random_instance(200, 5, 801);
  const auto ground_set = instance.ground_set();
  const core::PairwiseKernel kernel(ground_set, ObjectiveParams::from_alpha(0.9));
  const auto result = threshold_greedy(kernel, 30);
  expect_valid_subset(result.selected, 30, 200);
  EXPECT_NEAR(result.objective, kernel.objective().evaluate(result.selected), 1e-9);
}

TEST(ThresholdGreedy, NearGreedyQuality) {
  // (1 − 1/e − ε) vs (1 − 1/e): expect within a few percent of greedy.
  const Instance instance = random_instance(400, 6, 802);
  const auto ground_set = instance.ground_set();
  const auto params = ObjectiveParams::from_alpha(0.9);
  const core::PairwiseKernel kernel(ground_set, params);
  const double greedy =
      core::centralized_greedy(instance.graph, instance.utilities, params, 40)
          .objective;
  const auto result = threshold_greedy(kernel, 40, 0.05);
  EXPECT_GT(result.objective, 0.95 * greedy);
}

TEST(ThresholdGreedy, SmallerEpsilonIsAtLeastAsGoodOnAverage) {
  double fine = 0.0, coarse = 0.0;
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    const Instance instance = random_instance(150, 4, 810 + seed);
    const auto ground_set = instance.ground_set();
    const auto params = ObjectiveParams::from_alpha(0.9);
    const core::PairwiseKernel kernel(ground_set, params);
    fine += threshold_greedy(kernel, 20, 0.02).objective;
    coarse += threshold_greedy(kernel, 20, 0.5).objective;
  }
  EXPECT_GE(fine, coarse);
}

TEST(ThresholdGreedy, ZeroBudgetAndOversizedBudget) {
  const Instance instance = random_instance(30, 3, 803);
  const auto ground_set = instance.ground_set();
  const auto params = ObjectiveParams::from_alpha(0.9);
  const core::PairwiseKernel kernel(ground_set, params);
  EXPECT_TRUE(threshold_greedy(kernel, 0).selected.empty());
  const auto all = threshold_greedy(kernel, 100);
  EXPECT_EQ(all.selected.size(), 30u);
}

TEST(ThresholdGreedy, NearOptimalOnTinyInstance) {
  const Instance instance = random_instance(12, 3, 804);
  const auto ground_set = instance.ground_set();
  const auto params = ObjectiveParams::from_alpha(0.9);
  const core::PairwiseKernel kernel(ground_set, params);
  const double optimum = brute_force_optimum(ground_set, params, 4);
  const auto result = threshold_greedy(kernel, 4, 0.05);
  EXPECT_GE(result.objective, (1.0 - 1.0 / 2.718281828 - 0.05) * optimum);
}

// --- SieveStreaming ---------------------------------------------------------

TEST(SieveStreaming, ProducesValidSubset) {
  const Instance instance = random_instance(300, 5, 805);
  const auto ground_set = instance.ground_set();
  const core::PairwiseKernel kernel(ground_set, ObjectiveParams::from_alpha(0.9));
  SieveStreamingConfig config;
  const auto result = sieve_streaming(kernel, 30, config);
  EXPECT_LE(result.selected.size(), 30u);
  EXPECT_GT(result.selected.size(), 0u);
  std::set<NodeId> unique(result.selected.begin(), result.selected.end());
  EXPECT_EQ(unique.size(), result.selected.size());
  EXPECT_GT(result.num_sieves, 1u);
}

TEST(SieveStreaming, MeetsHalfMinusEpsilonOfGreedy) {
  // Guarantee is (1/2 − ε) of OPT; against greedy (≥ (1−1/e)·OPT) the bound
  // (1/2 − ε)/(1 − 1/e) ≈ 0.71 of greedy with ε = 0.05. Use monotone setup.
  const Instance instance = random_instance(400, 5, 806);
  const auto ground_set = instance.ground_set();
  const auto params = ObjectiveParams::from_alpha(0.9);
  const core::PairwiseKernel kernel(ground_set, params);
  const double greedy =
      core::centralized_greedy(instance.graph, instance.utilities, params, 40)
          .objective;
  SieveStreamingConfig config;
  config.epsilon = 0.05;
  const auto result = sieve_streaming(kernel, 40, config);
  EXPECT_GT(result.objective, 0.5 * greedy);
}

TEST(SieveStreaming, MemoryScalesWithBudgetNotGroundSet) {
  // Doubling n should not double resident memory; it is O(k log(k)/ε).
  const auto params = ObjectiveParams::from_alpha(0.9);
  const Instance small = random_instance(300, 5, 807);
  const Instance large = random_instance(1200, 5, 808);
  const auto small_set = small.ground_set();
  const auto large_set = large.ground_set();
  const auto small_result = sieve_streaming(core::PairwiseKernel(small_set, params), 20,
                                            SieveStreamingConfig{});
  const auto large_result = sieve_streaming(core::PairwiseKernel(large_set, params), 20,
                                            SieveStreamingConfig{});
  EXPECT_LT(large_result.peak_resident_elements,
            4 * small_result.peak_resident_elements + 64);
}

TEST(SieveStreaming, MonotonicityOffsetKeepsLowAlphaUsable) {
  // With α = 0.3 the raw objective can be non-monotone; the Appendix-A
  // offset restores the sieve's assumptions. The run must still return a
  // non-empty subset whose reported objective is the unshifted f(S).
  const Instance instance = random_instance(200, 6, 809);
  const auto ground_set = instance.ground_set();
  const core::PairwiseKernel kernel(ground_set, ObjectiveParams::from_alpha(0.3));
  SieveStreamingConfig config;
  config.apply_monotonicity_offset = true;
  const auto result = sieve_streaming(kernel, 25, config);
  EXPECT_GT(result.selected.size(), 0u);
  EXPECT_NEAR(result.objective, kernel.objective().evaluate(result.selected), 1e-9);
}

TEST(SieveStreaming, DeterministicGivenSeed) {
  const Instance instance = random_instance(150, 4, 811);
  const auto ground_set = instance.ground_set();
  const core::PairwiseKernel kernel(ground_set, ObjectiveParams::from_alpha(0.9));
  SieveStreamingConfig config;
  config.seed = 5;
  const auto a = sieve_streaming(kernel, 15, config);
  const auto b = sieve_streaming(kernel, 15, config);
  EXPECT_EQ(a.selected, b.selected);
  EXPECT_EQ(a.objective, b.objective);
}

// --- SAMPLE&PRUNE -----------------------------------------------------------

TEST(SamplePrune, ProducesValidSubset) {
  const Instance instance = random_instance(300, 5, 812);
  const auto ground_set = instance.ground_set();
  const core::PairwiseKernel kernel(ground_set, ObjectiveParams::from_alpha(0.9));
  const auto result = sample_and_prune(kernel, 30, SamplePruneConfig{});
  expect_valid_subset(result.selected, 30, 300);
  EXPECT_GE(result.rounds, 1u);
  EXPECT_NEAR(result.objective, kernel.objective().evaluate(result.selected), 1e-9);
}

TEST(SamplePrune, NearGreedyQuality) {
  const Instance instance = random_instance(500, 5, 813);
  const auto ground_set = instance.ground_set();
  const auto params = ObjectiveParams::from_alpha(0.9);
  const core::PairwiseKernel kernel(ground_set, params);
  const double greedy =
      core::centralized_greedy(instance.graph, instance.utilities, params, 50)
          .objective;
  SamplePruneConfig config;
  const auto result = sample_and_prune(kernel, 50, config);
  EXPECT_GT(result.objective, 0.85 * greedy);
}

TEST(SamplePrune, RespectsMachineCapacity) {
  const Instance instance = random_instance(400, 5, 814);
  const auto ground_set = instance.ground_set();
  const core::PairwiseKernel kernel(ground_set, ObjectiveParams::from_alpha(0.9));
  SamplePruneConfig config;
  config.machine_capacity = 60;
  const auto result = sample_and_prune(kernel, 40, config);
  EXPECT_LE(result.peak_resident_elements, 60u + 40u);
  EXPECT_EQ(result.selected.size(), 40u);
}

TEST(SamplePrune, SurvivorCountsShrink) {
  const Instance instance = random_instance(400, 5, 815);
  const auto ground_set = instance.ground_set();
  const core::PairwiseKernel kernel(ground_set, ObjectiveParams::from_alpha(0.9));
  SamplePruneConfig config;
  config.machine_capacity = 50;
  const auto result = sample_and_prune(kernel, 40, config);
  ASSERT_FALSE(result.survivors_per_round.empty());
  for (std::size_t i = 1; i < result.survivors_per_round.size(); ++i) {
    EXPECT_LE(result.survivors_per_round[i], result.survivors_per_round[i - 1]);
  }
}

TEST(SamplePrune, CapacityCoveringGroundSetMatchesGreedyQuality) {
  // With the whole ground set on one "machine" the first round degenerates
  // to the centralized greedy.
  const Instance instance = random_instance(120, 4, 816);
  const auto ground_set = instance.ground_set();
  const auto params = ObjectiveParams::from_alpha(0.9);
  const core::PairwiseKernel kernel(ground_set, params);
  SamplePruneConfig config;
  config.machine_capacity = 120;
  const auto result = sample_and_prune(kernel, 15, config);
  const double greedy = subsel::testing::naive_greedy(kernel, 15).objective;
  EXPECT_NEAR(result.objective, greedy, 1e-9);
}

// Parameterized sweep: every method returns a valid, reasonable-quality
// subset across budgets and alphas.
class StreamingBaselineSweep
    : public ::testing::TestWithParam<std::tuple<double, std::size_t>> {};

TEST_P(StreamingBaselineSweep, AllMethodsBeatRandomQuality) {
  const auto [alpha, k] = GetParam();
  const Instance instance = random_instance(250, 5, 820);
  const auto ground_set = instance.ground_set();
  const auto params = ObjectiveParams::from_alpha(alpha);
  const core::PairwiseKernel kernel(ground_set, params);

  double random_total = 0.0;
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    random_total += random_selection(kernel, k, seed).objective;
  }
  const double random_avg = random_total / 5.0;

  EXPECT_GT(threshold_greedy(kernel, k).objective, random_avg);

  SieveStreamingConfig sieve_config;
  sieve_config.apply_monotonicity_offset = alpha < 0.5;
  EXPECT_GT(sieve_streaming(kernel, k, sieve_config).objective, random_avg);

  SamplePruneConfig sp_config;
  EXPECT_GT(sample_and_prune(kernel, k, sp_config).objective, random_avg);
}

INSTANTIATE_TEST_SUITE_P(AlphasAndBudgets, StreamingBaselineSweep,
                         ::testing::Combine(::testing::Values(0.9, 0.5),
                                            ::testing::Values(10, 40, 80)));

}  // namespace
}  // namespace subsel::baselines
