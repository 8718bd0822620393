// The ObjectiveKernel seam: the incremental-state lazy driver fed by the
// plain-loop pairwise reference state against closed-form Algorithm 2, the
// coverage-family kernels (facility location, saturated coverage) against
// brute-force marginal-gain greedy, and kernel-driven distributed greedy.
#include "core/objective_kernel.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "../testing/naive_greedy.h"
#include "../testing/pairwise_reference.h"
#include "../testing/test_instances.h"
#include "core/coverage_kernel.h"
#include "core/distributed_greedy.h"
#include "core/facility_location_kernel.h"
#include "core/greedy.h"

namespace subsel::core {
namespace {

using subsel::testing::Instance;
using subsel::testing::PairwiseIncrementalState;
using subsel::testing::random_instance;

TEST(ObjectiveParamsValidation, RejectsMalformedAlphaBeta) {
  EXPECT_THROW((ObjectiveParams{0.0, 1.0}.validate()), std::invalid_argument);
  EXPECT_THROW((ObjectiveParams{-0.5, 1.0}.validate()), std::invalid_argument);
  EXPECT_THROW((ObjectiveParams{0.9, -0.1}.validate()), std::invalid_argument);
  EXPECT_THROW(
      (ObjectiveParams{std::numeric_limits<double>::quiet_NaN(), 0.1}.validate()),
      std::invalid_argument);
  EXPECT_THROW(
      (ObjectiveParams{0.9, std::numeric_limits<double>::infinity()}.validate()),
      std::invalid_argument);
  EXPECT_NO_THROW((ObjectiveParams{0.9, 0.0}.validate()));
  EXPECT_NO_THROW(ObjectiveParams::from_alpha(0.1).validate());
}

TEST(ObjectiveParamsValidation, PairwiseObjectiveFailsFastOnAlphaZero) {
  const Instance instance = random_instance(30, 4, 9001);
  const auto ground_set = instance.ground_set();
  EXPECT_THROW((PairwiseObjective(ground_set, ObjectiveParams{0.0, 1.0})),
               std::invalid_argument);
  EXPECT_THROW((PairwiseKernel(ground_set, ObjectiveParams{0.0, 1.0})),
               std::invalid_argument);
}

TEST(PairwiseIncrementalState, LazyDriverMatchesClosedFormAlgorithmTwo) {
  // The generic lazy driver fed by the pairwise incremental state must select
  // exactly what the closed-form decrease-key path selects (gains differ only
  // by the α·(u − (β/α)Σ) vs α·u − β·Σ association, which cannot reorder
  // them on these random instances).
  const auto params = ObjectiveParams::from_alpha(0.7);
  for (std::uint64_t seed : {9301ULL, 9302ULL}) {
    const Instance instance = random_instance(150, 6, seed);
    const auto ground_set = instance.ground_set();

    std::vector<NodeId> members(150);
    for (std::size_t i = 0; i < members.size(); ++i) {
      members[i] = static_cast<NodeId>(i);
    }
    const std::size_t k = 30;

    SubproblemArena closed_arena;
    const Subproblem& closed_sub = materialize_subproblem(
        ground_set, members, params, nullptr, closed_arena);
    const GreedyResult closed =
        greedy_on_subproblem(closed_sub, k, params, closed_arena);

    SubproblemArena lazy_arena;
    Subproblem& lazy_sub =
        materialize_subproblem_topology(ground_set, members, lazy_arena);
    PairwiseIncrementalState state(ground_set, params);
    state.reset(lazy_sub, nullptr);
    const GreedyResult lazy =
        incremental_greedy_on_subproblem(lazy_sub, k, state, lazy_arena);

    EXPECT_EQ(lazy.selected, closed.selected);
    EXPECT_NEAR(lazy.objective, closed.objective, 1e-9);
  }
}

TEST(PairwiseIncrementalState, ConditionsOnPreselectedState) {
  const Instance instance = random_instance(80, 6, 9400);
  const auto ground_set = instance.ground_set();
  const auto params = ObjectiveParams::from_alpha(0.6);

  SelectionState state(80);
  state.select(3);
  state.select(17);
  state.discard(5);

  std::vector<NodeId> members = state.unassigned_ids();
  const std::size_t k = 10;

  SubproblemArena closed_arena;
  const Subproblem& closed_sub = materialize_subproblem(
      ground_set, members, params, &state, closed_arena);
  const GreedyResult closed =
      greedy_on_subproblem(closed_sub, k, params, closed_arena);

  SubproblemArena lazy_arena;
  Subproblem& lazy_sub =
      materialize_subproblem_topology(ground_set, members, lazy_arena);
  PairwiseIncrementalState incremental(ground_set, params);
  incremental.reset(lazy_sub, &state);
  const GreedyResult lazy =
      incremental_greedy_on_subproblem(lazy_sub, k, incremental, lazy_arena);
  EXPECT_EQ(lazy.selected, closed.selected);
}

template <typename Kernel>
void expect_matches_naive(const Kernel& kernel, std::size_t k) {
  const GreedyResult expected = subsel::testing::naive_greedy(kernel, k);

  const std::size_t n = kernel.ground_set().num_points();
  std::vector<NodeId> members(n);
  for (std::size_t i = 0; i < n; ++i) members[i] = static_cast<NodeId>(i);
  SubproblemArena arena;
  GreedyResult actual = solve_partition(kernel, members, k, nullptr, arena);
  // solve_partition reports pick order; naive too. Same order expected.
  EXPECT_EQ(actual.selected, expected.selected);
  EXPECT_NEAR(actual.objective, expected.objective, 1e-9);
}

TEST(FacilityLocationKernel, LazyDriverMatchesNaiveKernelGreedy) {
  for (std::uint64_t seed : {9501ULL, 9502ULL}) {
    const Instance instance = random_instance(70, 5, seed);
    const auto ground_set = instance.ground_set();
    const FacilityLocationKernel kernel(ground_set, {});
    expect_matches_naive(kernel, 12);
  }
}

TEST(SaturatedCoverageKernel, LazyDriverMatchesNaiveKernelGreedy) {
  for (std::uint64_t seed : {9511ULL, 9512ULL}) {
    const Instance instance = random_instance(70, 5, seed);
    const auto ground_set = instance.ground_set();
    SaturatedCoverageParams params;
    params.saturation = 0.8;
    const SaturatedCoverageKernel kernel(ground_set, params);
    expect_matches_naive(kernel, 12);
  }
}

TEST(FacilityLocationKernel, RejectsInvalidParams) {
  const Instance instance = random_instance(20, 3, 9520);
  const auto ground_set = instance.ground_set();
  FacilityLocationParams params;
  params.self_similarity = -1.0;
  EXPECT_THROW(FacilityLocationKernel(ground_set, params), std::invalid_argument);
}

TEST(SaturatedCoverageKernel, RejectsInvalidParams) {
  const Instance instance = random_instance(20, 3, 9521);
  const auto ground_set = instance.ground_set();
  SaturatedCoverageParams params;
  params.saturation = 0.0;
  EXPECT_THROW(SaturatedCoverageKernel(ground_set, params), std::invalid_argument);
}

TEST(KernelCheckpoints, DifferentObjectiveConfigsDoNotResumeEachOther) {
  // A checkpoint written under one objective configuration must be ignored
  // (clean restart) by a run under another — same kernel name, different
  // parameters included.
  const Instance instance = random_instance(200, 5, 9800);
  const auto ground_set = instance.ground_set();
  const std::string checkpoint =
      ::testing::TempDir() + "/kernel_checkpoint_test.bin";
  std::remove(checkpoint.c_str());

  SaturatedCoverageParams tau_five;
  tau_five.saturation = 5.0;
  const SaturatedCoverageKernel kernel_five(ground_set, tau_five);
  DistributedGreedyConfig config;
  config.num_machines = 2;
  config.num_rounds = 3;
  config.checkpoint_file = checkpoint;
  config.stop_after_round = 1;  // leave a checkpoint behind
  const DistributedGreedyResult partial = distributed_greedy(kernel_five, 20, config);
  ASSERT_TRUE(partial.preempted);

  // Same kernel class, different saturation: must NOT resume (fingerprint
  // mismatch -> restart from round 1, so all 3 rounds execute).
  SaturatedCoverageParams tau_one;
  tau_one.saturation = 1.0;
  const SaturatedCoverageKernel kernel_one(ground_set, tau_one);
  DistributedGreedyConfig other = config;
  other.stop_after_round = 0;
  const DistributedGreedyResult restarted = distributed_greedy(kernel_one, 20, other);
  EXPECT_EQ(restarted.resumed_rounds, 0u);
  EXPECT_EQ(restarted.rounds.size(), 3u);

  // And an identical configuration MUST resume.
  std::remove(checkpoint.c_str());
  const DistributedGreedyResult partial_again =
      distributed_greedy(kernel_five, 20, config);
  ASSERT_TRUE(partial_again.preempted);
  DistributedGreedyConfig same = config;
  same.stop_after_round = 0;
  const DistributedGreedyResult resumed = distributed_greedy(kernel_five, 20, same);
  EXPECT_EQ(resumed.resumed_rounds, 1u);
  EXPECT_EQ(resumed.rounds.size(), 2u);
  std::remove(checkpoint.c_str());
}

TEST(KernelDistributedGreedy, NewKernelsRunEndToEndWithRoundsAndState) {
  // Full multi-round distributed greedy under each new kernel: valid subset,
  // objective equals a fresh kernel evaluation of the returned ids.
  const Instance instance = random_instance(300, 5, 9600);
  const auto ground_set = instance.ground_set();

  const FacilityLocationKernel fl(ground_set, {});
  SaturatedCoverageParams cov_params;
  const SaturatedCoverageKernel cov(ground_set, cov_params);
  const std::vector<const ObjectiveKernel*> kernels = {&fl, &cov};

  for (const ObjectiveKernel* kernel : kernels) {
    DistributedGreedyConfig config;
    config.num_machines = 4;
    config.num_rounds = 3;
    config.seed = 5;
    const DistributedGreedyResult result = distributed_greedy(*kernel, 30, config);
    ASSERT_EQ(result.selected.size(), 30u) << kernel->name();
    EXPECT_TRUE(std::is_sorted(result.selected.begin(), result.selected.end()));
    const double fresh =
        kernel->evaluate(std::span<const NodeId>(result.selected));
    EXPECT_NEAR(result.objective, fresh, 1e-9) << kernel->name();
    EXPECT_GT(result.objective, 0.0) << kernel->name();
  }
}

}  // namespace
}  // namespace subsel::core
