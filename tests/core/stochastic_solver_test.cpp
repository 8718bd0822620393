// The pluggable per-partition solver ("any centralized version of the
// algorithm can run inside a partition", Section 3): stochastic greedy over
// materialized subproblems, standalone and inside the distributed drivers.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "../testing/test_instances.h"
#include "core/distributed_greedy.h"
#include "core/greedy.h"

namespace subsel::core {
namespace {

using subsel::testing::Instance;
using subsel::testing::random_instance;

Subproblem full_subproblem(const Instance& instance, ObjectiveParams params) {
  const auto ground_set = instance.ground_set();
  std::vector<NodeId> all(instance.utilities.size());
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = static_cast<NodeId>(i);
  SubproblemArena arena;
  return materialize_subproblem(ground_set, all, params, nullptr, arena);
}

TEST(StochasticSubproblemSolver, SelectsKUniqueIds) {
  const Instance instance = random_instance(300, 5, 951);
  const auto params = ObjectiveParams::from_alpha(0.9);
  const Subproblem sub = full_subproblem(instance, params);
  const auto result = stochastic_greedy_on_subproblem(sub, 40, params, 0.1, 7);
  EXPECT_EQ(result.selected.size(), 40u);
  std::set<NodeId> unique(result.selected.begin(), result.selected.end());
  EXPECT_EQ(unique.size(), 40u);
}

TEST(StochasticSubproblemSolver, FullSampleMatchesExactGreedy) {
  // epsilon so small that every step samples the whole live set: identical
  // decisions to the priority-queue Algorithm 2.
  const Instance instance = random_instance(80, 4, 952);
  const auto params = ObjectiveParams::from_alpha(0.9);
  const Subproblem sub = full_subproblem(instance, params);
  SubproblemArena arena;
  const auto exact = greedy_on_subproblem(sub, 12, params, arena);
  const auto stochastic =
      stochastic_greedy_on_subproblem(sub, 12, params, 1e-9, 3);
  EXPECT_EQ(stochastic.selected, exact.selected);
  EXPECT_NEAR(stochastic.objective, exact.objective, 1e-9);
}

TEST(StochasticSubproblemSolver, QualityNearExactOnAverage) {
  const Instance instance = random_instance(500, 5, 953);
  const auto params = ObjectiveParams::from_alpha(0.9);
  const Subproblem sub = full_subproblem(instance, params);
  SubproblemArena arena;
  const double exact = greedy_on_subproblem(sub, 50, params, arena).objective;
  double stochastic_total = 0.0;
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    stochastic_total +=
        stochastic_greedy_on_subproblem(sub, 50, params, 0.1, seed).objective;
  }
  EXPECT_GT(stochastic_total / 5.0, 0.95 * exact);
}

TEST(StochasticSubproblemSolver, ObjectiveMatchesReEvaluation) {
  const Instance instance = random_instance(120, 4, 954);
  const auto ground_set = instance.ground_set();
  const auto params = ObjectiveParams::from_alpha(0.7);
  const Subproblem sub = full_subproblem(instance, params);
  const auto result = stochastic_greedy_on_subproblem(sub, 20, params, 0.2, 5);
  PairwiseObjective objective(ground_set, params);
  EXPECT_NEAR(result.objective, objective.evaluate(result.selected), 1e-9);
}

TEST(StochasticSubproblemSolver, RejectsBadEpsilon) {
  const Instance instance = random_instance(30, 3, 955);
  const auto params = ObjectiveParams::from_alpha(0.9);
  const Subproblem sub = full_subproblem(instance, params);
  EXPECT_THROW(stochastic_greedy_on_subproblem(sub, 5, params, 0.0, 1),
               std::invalid_argument);
  EXPECT_THROW(stochastic_greedy_on_subproblem(sub, 5, params, 1.0, 1),
               std::invalid_argument);
  EXPECT_THROW(stochastic_greedy_on_subproblem(sub, 5, params, -0.5, 1),
               std::invalid_argument);
  EXPECT_THROW(stochastic_greedy_on_subproblem(sub, 5, params, std::nan(""), 1),
               std::invalid_argument);
}

TEST(DistributedGreedyStochastic, SolverChoiceKeepsQuality) {
  const Instance instance = random_instance(600, 6, 956);
  const auto ground_set = instance.ground_set();
  const PairwiseKernel kernel(ground_set, ObjectiveParams::from_alpha(0.9));
  double pq_total = 0.0, stochastic_total = 0.0;
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    DistributedGreedyConfig config;
    config.num_machines = 8;
    config.num_rounds = 4;
    config.seed = seed;
    pq_total += distributed_greedy(kernel, 60, config).objective;
    config.partition_solver = PartitionSolver::kStochastic;
    stochastic_total += distributed_greedy(kernel, 60, config).objective;
  }
  EXPECT_EQ(pq_total > 0, true);
  EXPECT_NEAR(stochastic_total / pq_total, 1.0, 0.06);
}

TEST(DistributedGreedyStochastic, DeterministicGivenSeed) {
  const Instance instance = random_instance(200, 4, 957);
  const auto ground_set = instance.ground_set();
  const PairwiseKernel kernel(ground_set, ObjectiveParams::from_alpha(0.9));
  DistributedGreedyConfig config;
  config.num_machines = 4;
  config.num_rounds = 3;
  config.partition_solver = PartitionSolver::kStochastic;
  const auto a = distributed_greedy(kernel, 20, config);
  const auto b = distributed_greedy(kernel, 20, config);
  EXPECT_EQ(a.selected, b.selected);
}

}  // namespace
}  // namespace subsel::core
