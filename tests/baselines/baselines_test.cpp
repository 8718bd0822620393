#include "baselines/baselines.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "../testing/constraint_oracle.h"
#include "../testing/naive_greedy.h"
#include "../testing/property.h"
#include "../testing/test_instances.h"
#include "baselines/streaming.h"
#include "core/constraints.h"
#include "data/datasets.h"

namespace subsel::baselines {
namespace {

using subsel::testing::check_property;
using subsel::testing::feasibility_violation;
using subsel::testing::Instance;
using subsel::testing::random_constraints;
using subsel::testing::random_instance;
using subsel::testing::scaled;

TEST(RandomSelection, ProducesValidSubset) {
  const Instance instance = random_instance(100, 4, 701);
  const auto ground_set = instance.ground_set();
  const core::PairwiseKernel kernel(ground_set, ObjectiveParams{0.9, 0.1});
  const auto result = random_selection(kernel, 20, 1);
  EXPECT_EQ(result.selected.size(), 20u);
  std::set<NodeId> unique(result.selected.begin(), result.selected.end());
  EXPECT_EQ(unique.size(), 20u);
  EXPECT_NEAR(result.objective, kernel.objective().evaluate(result.selected), 1e-9);
}

TEST(RandomSelection, GreedyBeatsRandomOnAverage) {
  const Instance instance = random_instance(300, 6, 702);
  const auto ground_set = instance.ground_set();
  const auto params = ObjectiveParams::from_alpha(0.9);
  const core::PairwiseKernel kernel(ground_set, params);
  const double greedy =
      core::centralized_greedy(instance.graph, instance.utilities, params, 30)
          .objective;
  double random_total = 0.0;
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    random_total += random_selection(kernel, 30, seed).objective;
  }
  EXPECT_GT(greedy, random_total / 10.0);
}

TEST(GreeDi, ReturnsKPointsAndReportsMergeSize) {
  const Instance instance = random_instance(200, 5, 703);
  const auto ground_set = instance.ground_set();
  GreeDiConfig config;
  config.num_machines = 8;
  const auto result =
      greedi(core::PairwiseKernel(ground_set, ObjectiveParams::from_alpha(0.9)), 25,
             config);
  EXPECT_EQ(result.selected.size(), 25u);
  // Each machine proposes k candidates -> the merge machine holds ~m*k.
  EXPECT_EQ(result.merge_candidates, 8u * 25u);
  EXPECT_GT(result.merge_bytes, 0u);
}

TEST(GreeDi, SingleMachineEqualsCentralized) {
  const Instance instance = random_instance(80, 4, 704);
  const auto ground_set = instance.ground_set();
  const auto params = ObjectiveParams::from_alpha(0.9);
  GreeDiConfig config;
  config.num_machines = 1;
  const auto result = greedi(core::PairwiseKernel(ground_set, params), 15, config);
  auto centralized =
      core::centralized_greedy(instance.graph, instance.utilities, params, 15);
  std::sort(centralized.selected.begin(), centralized.selected.end());
  EXPECT_EQ(result.selected, centralized.selected);
}

TEST(GreeDi, RandomSchemeDiffersFromContiguous) {
  const Instance instance = random_instance(150, 4, 705);
  const auto ground_set = instance.ground_set();
  const core::PairwiseKernel kernel(ground_set, ObjectiveParams::from_alpha(0.9));
  GreeDiConfig config;
  config.num_machines = 6;
  config.scheme = PartitionScheme::kContiguous;
  const auto contiguous = greedi(kernel, 15, config);
  config.scheme = PartitionScheme::kRandom;
  const auto random = greedi(kernel, 15, config);
  // Both valid; objective within the same ballpark.
  EXPECT_EQ(contiguous.selected.size(), 15u);
  EXPECT_EQ(random.selected.size(), 15u);
  EXPECT_GT(random.objective, 0.5 * contiguous.objective);
}

TEST(GreeDi, QualityIsNearCentralized) {
  const Instance instance = random_instance(300, 5, 706);
  const auto ground_set = instance.ground_set();
  const auto params = ObjectiveParams::from_alpha(0.9);
  GreeDiConfig config;
  config.num_machines = 8;
  const auto distributed = greedi(core::PairwiseKernel(ground_set, params), 30, config);
  const double centralized =
      core::centralized_greedy(instance.graph, instance.utilities, params, 30)
          .objective;
  EXPECT_GT(distributed.objective, 0.8 * centralized);
}

TEST(LazyGreedy, MatchesEagerGreedy) {
  for (std::uint64_t seed : {711, 712, 713}) {
    const Instance instance = random_instance(60, 4, seed);
    const auto ground_set = instance.ground_set();
    for (double alpha : {0.9, 0.5}) {
      const core::PairwiseKernel kernel(ground_set, ObjectiveParams::from_alpha(alpha));
      const auto lazy = lazy_greedy(kernel, 12);
      const auto eager = subsel::testing::naive_greedy(kernel, 12);
      EXPECT_EQ(lazy.selected, eager.selected) << "seed " << seed;
      EXPECT_NEAR(lazy.objective, eager.objective, 1e-9);
    }
  }
}

TEST(LazyGreedy, HandlesKEqualN) {
  const Instance instance = random_instance(20, 3, 714);
  const auto ground_set = instance.ground_set();
  const auto result = lazy_greedy(core::PairwiseKernel(ground_set, {}), 20);
  EXPECT_EQ(result.selected.size(), 20u);
}

TEST(StochasticGreedy, ProducesValidSubsetNearGreedyQuality) {
  const Instance instance = random_instance(400, 5, 715);
  const auto ground_set = instance.ground_set();
  const auto params = ObjectiveParams::from_alpha(0.9);
  const auto stochastic =
      stochastic_greedy(core::PairwiseKernel(ground_set, params), 40, 0.1, 7);
  EXPECT_EQ(stochastic.selected.size(), 40u);
  std::set<NodeId> unique(stochastic.selected.begin(), stochastic.selected.end());
  EXPECT_EQ(unique.size(), 40u);

  const double greedy =
      core::centralized_greedy(instance.graph, instance.utilities, params, 40)
          .objective;
  EXPECT_GT(stochastic.objective, 0.85 * greedy);
}

TEST(StochasticGreedy, EpsilonOneSamplesSingleElement) {
  // epsilon -> 1 means sample size ~ n/k * ln(1) = 0 -> clamped to 1; still a
  // valid (if poor) subset.
  const Instance instance = random_instance(50, 3, 716);
  const auto ground_set = instance.ground_set();
  const auto result =
      stochastic_greedy(core::PairwiseKernel(ground_set, {}), 10, 0.999, 3);
  EXPECT_EQ(result.selected.size(), 10u);
}

TEST(StochasticGreedy, DeterministicForFixedSeed) {
  const Instance instance = random_instance(100, 4, 717);
  const auto ground_set = instance.ground_set();
  const core::PairwiseKernel kernel(ground_set, {});
  const auto a = stochastic_greedy(kernel, 10, 0.1, 5);
  const auto b = stochastic_greedy(kernel, 10, 0.1, 5);
  EXPECT_EQ(a.selected, b.selected);
}

TEST(ConstrainedBaselines, FeasibleAndMaximalWhenThePoolRunsDry) {
  // With k = n a constrained run may only stop once no unselected element
  // fits the final selection. Stochastic and threshold greedy keep pools of
  // candidates that are re-checked only when an acceptance can have made one
  // infeasible; the pools must run dry exactly then, never holding an
  // infeasible element and never losing a feasible one.
  check_property(
      "constrained centralized baselines", 150,
      [](std::uint64_t seed, double scale) -> std::optional<std::string> {
        const std::size_t n = scaled(24, scale, 4);
        const Instance instance = random_instance(n, 3, seed);
        const auto ground_set = instance.ground_set();
        const core::PairwiseKernel kernel(ground_set,
                                          ObjectiveParams::from_alpha(0.9));
        Rng rng(seed ^ 0x9a7e);
        const core::ConstraintSet constraints = random_constraints(n, rng);
        const std::pair<const char*, GreedyResult> runs[] = {
            {"lazy_greedy", lazy_greedy(kernel, n, {}, &constraints)},
            {"stochastic_greedy",
             stochastic_greedy(kernel, n, 0.1, seed, {}, &constraints)},
            {"threshold_greedy", threshold_greedy(kernel, n, 0.1, {}, &constraints)},
        };
        for (const auto& [name, result] : runs) {
          std::vector<NodeId> sorted = result.selected;
          std::sort(sorted.begin(), sorted.end());
          std::string violation = feasibility_violation(sorted, constraints, n);
          core::ConstraintTracker final_state(constraints);
          final_state.seed(sorted);
          for (std::size_t i = 0; i < n && violation.empty(); ++i) {
            const auto v = static_cast<NodeId>(i);
            if (!std::binary_search(sorted.begin(), sorted.end(), v) &&
                final_state.feasible(v)) {
              violation = "stopped with element " + std::to_string(v) +
                          " still feasible";
            }
          }
          if (!violation.empty()) return std::string(name) + ": " + violation;
        }
        return std::nullopt;
      });
}

TEST(KCenter, CoversTheSpaceAndRadiusShrinksWithK) {
  const data::Dataset dataset = data::toy_dataset(600, 12, 45);
  const auto ground_set = dataset.ground_set();
  const core::PairwiseKernel kernel(ground_set, ObjectiveParams::from_alpha(0.9));
  const auto small = greedy_k_center(dataset.embeddings, kernel, 6);
  const auto large = greedy_k_center(dataset.embeddings, kernel, 60);
  EXPECT_EQ(small.selected.size(), 6u);
  EXPECT_EQ(large.selected.size(), 60u);
  EXPECT_LT(large.radius, small.radius);
  EXPECT_GT(small.radius, 0.0);
}

TEST(KCenter, SelectsUniqueValidIds) {
  const data::Dataset dataset = data::toy_dataset(300, 8, 46);
  const auto ground_set = dataset.ground_set();
  const core::PairwiseKernel kernel(ground_set, ObjectiveParams::from_alpha(0.9));
  const auto result = greedy_k_center(dataset.embeddings, kernel, 30);
  std::set<NodeId> unique(result.selected.begin(), result.selected.end());
  EXPECT_EQ(unique.size(), 30u);
  EXPECT_NEAR(result.objective, kernel.objective().evaluate(result.selected), 1e-9);
}

TEST(KCenter, HitsEveryClusterWhenKEqualsClassCount) {
  // 12 well-separated clusters, k = 12: greedy k-center picks one point per
  // cluster (the textbook behavior the paper's diversity term approximates).
  const data::Dataset dataset = data::toy_dataset(600, 12, 47);
  const auto ground_set = dataset.ground_set();
  const auto result = greedy_k_center(
      dataset.embeddings,
      core::PairwiseKernel(ground_set, ObjectiveParams::from_alpha(0.9)), 12);
  std::set<std::uint32_t> classes;
  for (NodeId v : result.selected) {
    classes.insert(dataset.labels[static_cast<std::size_t>(v)]);
  }
  EXPECT_GE(classes.size(), 10u);  // allow mild cluster overlap
}

TEST(KCenter, PureDiversityLosesToSubmodularObjectiveOnF) {
  // k-center ignores utilities, so on f (which weighs them 9:1) the
  // submodular greedy must win.
  const data::Dataset dataset = data::toy_dataset(400, 8, 48);
  const auto ground_set = dataset.ground_set();
  const auto params = ObjectiveParams::from_alpha(0.9);
  const auto kcenter = greedy_k_center(dataset.embeddings,
                                       core::PairwiseKernel(ground_set, params), 40);
  const auto greedy =
      core::centralized_greedy(dataset.graph, dataset.utilities, params, 40);
  EXPECT_GT(greedy.objective, kcenter.objective);
}

}  // namespace
}  // namespace subsel::baselines
