#include "core/bounding.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "../testing/test_instances.h"
#include "core/greedy.h"

namespace subsel::core {
namespace {

using testing::Instance;
using testing::brute_force_optimum;
using testing::random_instance;

BoundingConfig exact_config() {
  BoundingConfig config;
  config.sampling = BoundingSampling::kNone;
  return config;
}

TEST(UtilityBounds, MatchDefinitionsOnHandInstance) {
  // Path 0 - 1 - 2 (weights 0.5, 0.25), utilities 1, 2, 3; alpha=beta=0.5
  // so pair_scale = 1.
  std::vector<graph::NeighborList> lists(3);
  lists[0].edges = {{1, 0.5f}};
  lists[1].edges = {{2, 0.25f}};
  Instance instance;
  instance.graph = graph::SimilarityGraph::from_lists(lists).symmetrized();
  instance.utilities = {1.0, 2.0, 3.0};
  const auto ground_set = instance.ground_set();

  BoundingConfig config = exact_config();
  SelectionState state(3);
  std::vector<double> u_min, u_max;
  detail::compute_utility_bounds(ground_set, ObjectiveParams::from_alpha(0.5), state,
                                 config, 1, u_min, u_max);
  // No partial solution: Umax = u; Umin subtracts all neighbors.
  EXPECT_NEAR(u_min[0], 1.0 - 0.5, 1e-6);
  EXPECT_NEAR(u_min[1], 2.0 - 0.75, 1e-6);
  EXPECT_NEAR(u_min[2], 3.0 - 0.25, 1e-6);
  EXPECT_DOUBLE_EQ(u_max[0], 1.0);
  EXPECT_DOUBLE_EQ(u_max[1], 2.0);
  EXPECT_DOUBLE_EQ(u_max[2], 3.0);

  // Select 2, discard 0: point 1's Umin no longer counts 0's edge but still
  // counts 2's (selected neighbors always count); Umax now counts 2's edge.
  state.select(2);
  state.discard(0);
  detail::compute_utility_bounds(ground_set, ObjectiveParams::from_alpha(0.5), state,
                                 config, 2, u_min, u_max);
  EXPECT_TRUE(std::isnan(u_min[0]));
  EXPECT_TRUE(std::isnan(u_max[2]));
  EXPECT_NEAR(u_min[1], 2.0 - 0.25, 1e-6);
  EXPECT_NEAR(u_max[1], 2.0 - 0.25, 1e-6);
}

TEST(UtilityBounds, UminNeverExceedsUmax) {
  const Instance instance = random_instance(60, 5, 81);
  const auto ground_set = instance.ground_set();
  const BoundingConfig config = exact_config();
  SelectionState state(60);
  state.select(3);
  state.select(17);
  state.discard(40);
  std::vector<double> u_min, u_max;
  detail::compute_utility_bounds(ground_set, ObjectiveParams::from_alpha(0.5), state,
                                 config, 1, u_min, u_max);
  for (std::size_t i = 0; i < 60; ++i) {
    if (!state.is_unassigned(static_cast<NodeId>(i))) continue;
    EXPECT_LE(u_min[i], u_max[i] + 1e-12);
  }
}

TEST(ExactBounding, NeverMakesWrongDecisionsVsBruteForce) {
  // Lemmas 4.3/4.4: exact bounding only selects points of the optimal set and
  // only discards points outside it (when the optimum is unique).
  for (std::uint64_t seed : {101, 102, 103, 104, 105, 106}) {
    const Instance instance = random_instance(12, 3, seed);
    const auto ground_set = instance.ground_set();
    const PairwiseKernel kernel(ground_set, ObjectiveParams::from_alpha(0.9));
    const std::size_t k = 4;
    BoundingConfig config = exact_config();
    const auto result = bound(kernel, k, config);

    std::vector<NodeId> optimal;
    brute_force_optimum(ground_set, ObjectiveParams::from_alpha(0.9), k, &optimal);
    for (NodeId v = 0; v < 12; ++v) {
      const bool in_optimal = std::binary_search(optimal.begin(), optimal.end(), v);
      if (result.state.is_selected(v)) {
        EXPECT_TRUE(in_optimal) << "seed " << seed << " selected non-optimal " << v;
      }
      if (result.state.is_discarded(v)) {
        EXPECT_FALSE(in_optimal) << "seed " << seed << " discarded optimal " << v;
      }
    }
  }
}

TEST(ExactBounding, CompletesOnIsolatedPoints) {
  // Without edges Umin == Umax == u, so bounding solves the problem outright:
  // top-k by utility selected, rest discarded.
  Instance instance;
  instance.graph =
      graph::SimilarityGraph::from_lists(std::vector<graph::NeighborList>(6));
  instance.utilities = {0.1, 0.6, 0.3, 0.9, 0.2, 0.5};
  const auto ground_set = instance.ground_set();
  const PairwiseKernel kernel(ground_set, ObjectiveParams::from_alpha(0.9));
  const auto result = bound(kernel, 3, exact_config());
  EXPECT_TRUE(result.complete());
  EXPECT_EQ(result.included, 3u);
  EXPECT_EQ(result.state.selected_ids(), (std::vector<NodeId>{1, 3, 5}));
}

TEST(ExactBounding, ZeroBudgetIsImmediatelyComplete) {
  const Instance instance = random_instance(10, 2, 111);
  const auto ground_set = instance.ground_set();
  const PairwiseKernel kernel(ground_set, ObjectiveParams::from_alpha(0.9));
  const auto result = bound(kernel, 0, exact_config());
  EXPECT_TRUE(result.complete());
  EXPECT_EQ(result.included, 0u);
  EXPECT_EQ(result.excluded, 0u);
}

TEST(ExactBounding, BudgetEqualToGroundSetSelectsEverything) {
  const Instance instance = random_instance(10, 2, 112);
  const auto ground_set = instance.ground_set();
  const PairwiseKernel kernel(ground_set, ObjectiveParams::from_alpha(0.9));
  const auto result = bound(kernel, 10, exact_config());
  EXPECT_TRUE(result.complete());
  EXPECT_EQ(result.included, 10u);
  EXPECT_EQ(result.excluded, 0u);
}

TEST(ExactBounding, ReportsRoundCounts) {
  const Instance instance = random_instance(30, 4, 113);
  const auto ground_set = instance.ground_set();
  const PairwiseKernel kernel(ground_set, ObjectiveParams::from_alpha(0.9));
  const auto result = bound(kernel, 10, exact_config());
  // At minimum one shrink and one grow invocation happen (the convergence
  // checks themselves).
  EXPECT_GE(result.shrink_rounds, 1u);
  EXPECT_GE(result.grow_rounds, 1u);
}

TEST(ExactBounding, GreedyCompletionIsAtLeastAsGoodAsPlainGreedy) {
  // Exact bounding never removes optimal points, so greedy-after-bounding
  // should not be (materially) worse than plain centralized greedy.
  for (std::uint64_t seed : {121, 122, 123}) {
    const Instance instance = random_instance(40, 4, seed);
    const auto ground_set = instance.ground_set();
    const PairwiseKernel kernel(ground_set, ObjectiveParams::from_alpha(0.9));
    const auto params = ObjectiveParams::from_alpha(0.9);
    const std::size_t k = 8;

    BoundingConfig config = exact_config();
    const auto bounding = bound(kernel, k, config);

    std::vector<NodeId> members = bounding.state.unassigned_ids();
    SubproblemArena arena;
    const Subproblem& sub =
        materialize_subproblem(ground_set, members, params, &bounding.state, arena);
    auto completion = greedy_on_subproblem(sub, bounding.k_remaining, params, arena);
    std::vector<NodeId> full = bounding.state.selected_ids();
    full.insert(full.end(), completion.selected.begin(), completion.selected.end());

    PairwiseObjective objective(ground_set, params);
    const double bounded_score = objective.evaluate(full);
    const double plain =
        centralized_greedy(instance.graph, instance.utilities, params, k).objective;
    // Not a theorem (greedy completion is heuristic), but empirically exact
    // bounding matches or beats plain greedy (Table 2); allow 2 % slack.
    EXPECT_GE(bounded_score, plain * 0.98) << "seed " << seed;
  }
}

TEST(ApproximateBounding, FullSamplingEqualsExactBounding) {
  // p = 1: every neighbor is sampled, so Uexp == Umin and the runs coincide.
  const Instance instance = random_instance(50, 5, 131);
  const auto ground_set = instance.ground_set();
  const PairwiseKernel kernel(ground_set, ObjectiveParams::from_alpha(0.9));
  BoundingConfig exact = exact_config();
  BoundingConfig approx = exact;
  approx.sampling = BoundingSampling::kUniform;
  approx.sample_fraction = 1.0;

  const auto a = bound(kernel, 10, exact);
  const auto b = bound(kernel, 10, approx);
  EXPECT_EQ(a.included, b.included);
  EXPECT_EQ(a.excluded, b.excluded);
  EXPECT_EQ(a.state.selected_ids(), b.state.selected_ids());
  EXPECT_EQ(a.state.unassigned_ids(), b.state.unassigned_ids());
}

TEST(ApproximateBounding, MakesMoreDecisionsThanExact) {
  // Section 6.2: sampling raises Uexp above Umin, which both grows and
  // shrinks more aggressively.
  const Instance instance = random_instance(200, 8, 132);
  const auto ground_set = instance.ground_set();
  const PairwiseKernel kernel(ground_set, ObjectiveParams::from_alpha(0.9));
  BoundingConfig exact = exact_config();
  BoundingConfig approx = exact;
  approx.sampling = BoundingSampling::kUniform;
  approx.sample_fraction = 0.3;

  const auto exact_result = bound(kernel, 20, exact);
  const auto approx_result = bound(kernel, 20, approx);
  EXPECT_GE(approx_result.included + approx_result.excluded,
            exact_result.included + exact_result.excluded);
}

TEST(ApproximateBounding, WeightedSamplingRespectsBudget) {
  const Instance instance = random_instance(100, 6, 133);
  const auto ground_set = instance.ground_set();
  const PairwiseKernel kernel(ground_set, ObjectiveParams::from_alpha(0.9));
  BoundingConfig config = exact_config();
  config.sampling = BoundingSampling::kWeighted;
  config.sample_fraction = 0.3;
  const auto result = bound(kernel, 15, config);
  EXPECT_LE(result.included, 15u);
  EXPECT_LE(result.k_remaining, 15u);
  EXPECT_EQ(result.included + result.k_remaining, 15u);
  // Shrinking must leave at least k candidates.
  EXPECT_GE(result.state.num_unassigned() + result.included, 15u);
}

TEST(ApproximateBounding, SamplingDecisionIsDeterministic) {
  BoundingConfig config = exact_config();
  config.sampling = BoundingSampling::kUniform;
  config.sample_fraction = 0.5;
  config.seed = 7;
  int included = 0;
  for (int i = 0; i < 1000; ++i) {
    const bool a = detail::sample_neighbor(config, 3, 11, i, 0.5f, 0.5);
    const bool b = detail::sample_neighbor(config, 3, 11, i, 0.5f, 0.5);
    EXPECT_EQ(a, b);
    included += a;
  }
  EXPECT_NEAR(included, 500, 60);
}

TEST(ApproximateBounding, WeightedSamplingFavorsHeavyEdges) {
  BoundingConfig config = exact_config();
  config.sampling = BoundingSampling::kWeighted;
  config.sample_fraction = 0.4;
  int heavy = 0, light = 0;
  for (int i = 0; i < 2000; ++i) {
    heavy += detail::sample_neighbor(config, 1, 5, i, 0.9f, 0.5);
    light += detail::sample_neighbor(config, 1, 5, i + 10'000, 0.1f, 0.5);
  }
  EXPECT_GT(heavy, light * 3);
}

TEST(Bounding, SmallTargetTendsToExcludeLargeTargetTendsToInclude) {
  // Section 6.2's qualitative finding, on a larger random instance.
  const Instance instance = random_instance(400, 10, 134);
  const auto ground_set = instance.ground_set();
  const PairwiseKernel kernel(ground_set, ObjectiveParams::from_alpha(0.9));
  BoundingConfig config = exact_config();
  config.sampling = BoundingSampling::kUniform;
  config.sample_fraction = 0.3;

  const auto small_target = bound(kernel, 40, config);    // 10 %
  const auto large_target = bound(kernel, 320, config);   // 80 %
  EXPECT_GT(small_target.excluded, small_target.included);
  EXPECT_GT(large_target.included, large_target.excluded);
}

}  // namespace
}  // namespace subsel::core
