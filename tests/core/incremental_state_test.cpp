// Parity suite for the incremental kernel state and the batched solve loop:
// the flat arena-backed state (make_incremental_state, or for pairwise, which
// keeps none, the plain-loop reference in tests/testing/pairwise_reference.h)
// must stay within tolerance of the kernel's brute-force exact oracle
// (marginal_gain), its batched and single gains must agree bit for bit, and
// the batched lazy driver must pick exactly what a one-at-a-time lazy loop
// over the same state picks — across randomized instances, adversarial
// ties, duplicate weights, conditioning on pre-selected state, and empty
// partitions.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <span>
#include <vector>

#include "../testing/lazy_reference.h"
#include "../testing/naive_greedy.h"
#include "../testing/pairwise_reference.h"
#include "../testing/test_instances.h"
#include "baselines/baselines.h"
#include "baselines/gain_engine.h"
#include "core/coverage_kernel.h"
#include "core/facility_location_kernel.h"
#include "core/greedy.h"
#include "core/objective_kernel.h"

namespace subsel::core {
namespace {

using subsel::testing::incremental_state_for;
using subsel::testing::Instance;
using subsel::testing::naive_greedy;
using subsel::testing::random_instance;

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

std::vector<NodeId> every_third(std::size_t n) {
  std::vector<NodeId> members;
  for (std::size_t i = 0; i < n; i += 3) members.push_back(static_cast<NodeId>(i));
  return members;
}

/// Over a random play-out on a partial subproblem: the priorities written at
/// reset are the state's own gains, batched gains equal single gains bit for
/// bit, and a second reset reproduces the first.
void expect_state_self_consistent(const ObjectiveKernel& kernel,
                                  std::span<const NodeId> members,
                                  const SelectionState* conditioning,
                                  std::uint64_t seed) {
  SubproblemArena arena;
  Subproblem& sub =
      materialize_subproblem_topology(kernel.ground_set(), members, arena);
  const std::unique_ptr<KernelIncrementalState> state =
      incremental_state_for(kernel, arena);
  state->reset(sub, conditioning);
  const std::vector<double> first_priorities = sub.priorities;
  state->reset(sub, conditioning);
  EXPECT_EQ(sub.priorities, first_priorities) << kernel.name();

  const std::size_t n = sub.size();
  ASSERT_EQ(sub.priorities.size(), n);
  for (std::uint32_t v = 0; v < n; ++v) {
    EXPECT_EQ(sub.priorities[v], state->gain(v))
        << kernel.name() << " initial gain of local " << v;
  }
  EXPECT_GT(state->state_bytes(), 0u);

  Rng rng(seed);
  std::vector<std::uint32_t> all(n);
  for (std::uint32_t i = 0; i < n; ++i) all[i] = i;
  std::vector<std::uint32_t> picks(all);
  rng.shuffle(std::span<std::uint32_t>(picks));
  picks.resize(std::min<std::size_t>(n, 12));

  std::vector<double> batched(n);
  for (const std::uint32_t pick : picks) {
    state->gains_batch(all, batched);
    for (std::uint32_t v = 0; v < n; ++v) {
      EXPECT_EQ(batched[v], state->gain(v))
          << kernel.name() << " batched gain of local " << v;
    }
    state->select(pick);
  }
}

TEST(IncrementalStateParity, BatchedGainsMatchSingleGainsOnRandomSubproblems) {
  for (std::uint64_t seed : {41001ULL, 41002ULL, 41003ULL}) {
    const Instance instance = random_instance(90, 5, seed);
    const auto ground_set = instance.ground_set();
    const KernelSet kernels(ground_set);
    const std::vector<NodeId> members = every_third(90);
    for (const ObjectiveKernel* kernel : kernels.all()) {
      expect_state_self_consistent(*kernel, members, nullptr, seed ^ 0xfeed);
    }
  }
}

TEST(IncrementalStateParity, BatchedGainsMatchSingleGainsConditioned) {
  const Instance instance = random_instance(80, 6, 41010);
  const auto ground_set = instance.ground_set();
  const KernelSet kernels(ground_set);

  SelectionState conditioning(80);
  conditioning.select(2);
  conditioning.select(35);
  conditioning.select(71);
  conditioning.discard(7);
  const std::vector<NodeId> members = conditioning.unassigned_ids();
  for (const ObjectiveKernel* kernel : kernels.all()) {
    expect_state_self_consistent(*kernel, members, &conditioning, 99);
  }
}

TEST(IncrementalStateParity, GainsTrackBruteForceOracle) {
  // Over the full ground set (no dropped edges) the subproblem-scoped state
  // must agree with the kernel's exact marginal-gain oracle.
  const Instance instance = random_instance(60, 5, 41020);
  const auto ground_set = instance.ground_set();
  const KernelSet kernels(ground_set);
  const std::size_t n = 60;
  std::vector<NodeId> members(n);
  for (std::size_t i = 0; i < n; ++i) members[i] = static_cast<NodeId>(i);

  for (const ObjectiveKernel* kernel : kernels.all()) {
    SubproblemArena arena;
    Subproblem& sub =
        materialize_subproblem_topology(ground_set, members, arena);
    const std::unique_ptr<KernelIncrementalState> state =
        incremental_state_for(*kernel, arena);
    state->reset(sub, nullptr);

    std::vector<std::uint8_t> membership(n, 0);
    const std::vector<std::uint32_t> picks = {3, 17, 42, 8, 55};
    for (const std::uint32_t pick : picks) {
      for (std::uint32_t v = 0; v < n; ++v) {
        if (membership[v] != 0) continue;
        const double oracle = kernel->marginal_gain(membership, static_cast<NodeId>(v));
        EXPECT_NEAR(state->gain(v), oracle, 1e-9 * (1.0 + std::abs(oracle)))
            << kernel->name() << " vs oracle at local " << v;
      }
      membership[pick] = 1;
      state->select(pick);
    }
  }
}

TEST(IncrementalStateParity, ConditionedGainsTrackBruteForceOracle) {
  // Conditioning on selected points S′ (every other point a member, so no
  // edge is dropped except into S′): the state's gains must agree with the
  // exact oracle evaluated against S′ plus the local picks. Selected points
  // are fully covered (self-similarity 1 >= every weight; coverage saturates
  // at 0.8 < 1), so the oracle's terms for them vanish like the dropped
  // edges do.
  const std::size_t n = 70;
  const Instance instance = random_instance(n, 5, 41030);
  const auto ground_set = instance.ground_set();
  const KernelSet kernels(ground_set);
  SelectionState conditioning(n);
  for (const NodeId v : {NodeId{4}, NodeId{19}, NodeId{50}}) conditioning.select(v);
  const std::vector<NodeId> members = conditioning.unassigned_ids();

  for (const ObjectiveKernel* kernel : kernels.all()) {
    SubproblemArena arena;
    Subproblem& sub = materialize_subproblem_topology(ground_set, members, arena);
    const std::unique_ptr<KernelIncrementalState> state =
        incremental_state_for(*kernel, arena);
    state->reset(sub, &conditioning);

    std::vector<std::uint8_t> membership(n, 0);
    for (const NodeId v : conditioning.selected_ids()) {
      membership[static_cast<std::size_t>(v)] = 1;
    }
    for (const std::uint32_t pick : {std::uint32_t{3}, std::uint32_t{40}}) {
      for (std::uint32_t local = 0; local < sub.size(); ++local) {
        const NodeId v = sub.global_ids[local];
        if (membership[static_cast<std::size_t>(v)] != 0) continue;
        const double oracle = kernel->marginal_gain(membership, v);
        EXPECT_NEAR(state->gain(local), oracle, 1e-9 * (1.0 + std::abs(oracle)))
            << kernel->name() << " vs oracle at global " << v;
      }
      membership[static_cast<std::size_t>(sub.global_ids[pick])] = 1;
      state->select(pick);
    }
  }
}

/// The batched lazy driver vs the one-at-a-time lazy loop over the same
/// state arithmetic: identical picks, identical objective.
void expect_drivers_agree(const ObjectiveKernel& kernel,
                          std::span<const NodeId> members, std::size_t k) {
  SubproblemArena reference_arena;
  Subproblem& reference_sub = materialize_subproblem_topology(
      kernel.ground_set(), members, reference_arena);
  const std::unique_ptr<KernelIncrementalState> reference_state =
      incremental_state_for(kernel, reference_arena);
  reference_state->reset(reference_sub, nullptr);
  const GreedyResult lazy = subsel::testing::one_at_a_time_lazy_greedy(
      reference_sub, k, *reference_state);

  SubproblemArena state_arena;
  Subproblem& state_sub = materialize_subproblem_topology(
      kernel.ground_set(), members, state_arena);
  const std::unique_ptr<KernelIncrementalState> state =
      incremental_state_for(kernel, state_arena);
  state->reset(state_sub, nullptr);
  const GreedyResult batched =
      incremental_greedy_on_subproblem(state_sub, k, *state, state_arena);

  EXPECT_EQ(batched.selected, lazy.selected) << kernel.name();
  EXPECT_EQ(batched.objective, lazy.objective) << kernel.name();
}

TEST(BatchedLazyDriver, MatchesOneAtATimeLoopOnRandomInstances) {
  for (std::uint64_t seed : {41101ULL, 41102ULL}) {
    const Instance instance = random_instance(150, 6, seed);
    const auto ground_set = instance.ground_set();
    const KernelSet kernels(ground_set);
    const std::vector<NodeId> members = every_third(150);
    for (const ObjectiveKernel* kernel : kernels.all()) {
      // k spanning less than, around, and beyond one refresh batch.
      for (const std::size_t k : {std::size_t{5}, kGainRefreshBatch + 3,
                                  members.size()}) {
        expect_drivers_agree(*kernel, members, k);
      }
    }
  }
}

/// Every weight and utility identical: every candidate ties with every
/// other, so any divergence in tie-breaking (or any last-ulp gain drift)
/// would reorder selections.
Instance adversarial_ties_instance(std::size_t n) {
  Instance instance = random_instance(n, 5, 41200, /*max_weight=*/1.0,
                                      /*max_utility=*/2.0);
  std::vector<graph::NeighborList> lists(n);
  {
    std::vector<graph::Edge> scratch;
    for (std::size_t v = 0; v < n; ++v) {
      for (const graph::Edge& e : instance.graph.neighbors(static_cast<NodeId>(v))) {
        lists[v].edges.push_back(graph::Edge{e.neighbor, 0.5f});
      }
    }
  }
  instance.graph = graph::SimilarityGraph::from_lists(lists).symmetrized();
  std::fill(instance.utilities.begin(), instance.utilities.end(), 1.0);
  return instance;
}

TEST(BatchedLazyDriver, MatchesOneAtATimeLoopUnderAdversarialTies) {
  const std::size_t n = 120;
  const Instance instance = adversarial_ties_instance(n);
  const auto ground_set = instance.ground_set();
  const KernelSet kernels(ground_set);

  std::vector<NodeId> members(n);
  for (std::size_t i = 0; i < n; ++i) members[i] = static_cast<NodeId>(i);
  for (const ObjectiveKernel* kernel : kernels.all()) {
    expect_drivers_agree(*kernel, members, n / 3);
  }
}

TEST(BatchedLazyDriver, MatchesOneAtATimeLoopWithDuplicateWeights) {
  // Two distinct weight values only: heavy duplication without full
  // degeneracy.
  const std::size_t n = 100;
  Instance instance = random_instance(n, 6, 41210);
  std::vector<graph::NeighborList> lists(n);
  Rng rng(7);
  for (std::size_t v = 0; v < n; ++v) {
    for (const graph::Edge& e : instance.graph.neighbors(static_cast<NodeId>(v))) {
      lists[v].edges.push_back(
          graph::Edge{e.neighbor, rng.uniform() < 0.5 ? 0.25f : 0.75f});
    }
  }
  instance.graph = graph::SimilarityGraph::from_lists(lists).symmetrized();
  for (double& u : instance.utilities) u = rng.uniform() < 0.5 ? 1.0 : 1.5;
  const auto ground_set = instance.ground_set();
  const KernelSet kernels(ground_set);

  std::vector<NodeId> members(n);
  for (std::size_t i = 0; i < n; ++i) members[i] = static_cast<NodeId>(i);
  for (const ObjectiveKernel* kernel : kernels.all()) {
    expect_drivers_agree(*kernel, members, n / 2);
  }
}

TEST(BatchedLazyDriver, HandlesEmptyAndDegeneratePartitions) {
  const Instance instance = random_instance(40, 4, 41220);
  const auto ground_set = instance.ground_set();
  const KernelSet kernels(ground_set);
  for (const ObjectiveKernel* kernel : kernels.all()) {
    SubproblemArena arena;
    // Empty member list.
    const GreedyResult empty =
        solve_partition(*kernel, std::span<const NodeId>{}, 5, nullptr, arena);
    EXPECT_TRUE(empty.selected.empty()) << kernel->name();
    EXPECT_EQ(empty.objective, 0.0) << kernel->name();

    // k = 0 on a non-empty partition.
    std::vector<NodeId> members = {1, 5, 9};
    const GreedyResult zero = solve_partition(*kernel, members, 0, nullptr, arena);
    EXPECT_TRUE(zero.selected.empty()) << kernel->name();

    // k beyond the partition size selects everything.
    const GreedyResult all = solve_partition(*kernel, members, 64, nullptr, arena);
    EXPECT_EQ(all.selected.size(), members.size()) << kernel->name();

    // Duplicate members are rejected on both gain paths.
    std::vector<NodeId> duplicates = {1, 5, 5};
    EXPECT_THROW(solve_partition(*kernel, duplicates, 2, nullptr, arena),
                 std::invalid_argument)
        << kernel->name();
  }
}

TEST(SolvePartition, MatchesOneAtATimeLazyLoop) {
  // solve_partition (the batched driver for non-pairwise kernels, the
  // closed-form decrease-key path for pairwise) picks what the one-at-a-time
  // lazy loop over the kernel's state picks, with the byte counts set.
  // Pairwise gains differ from the closed form by association only, so its
  // objective is compared to a tolerance.
  const Instance instance = random_instance(200, 6, 41300);
  const auto ground_set = instance.ground_set();
  const KernelSet kernels(ground_set);
  const std::vector<NodeId> members = every_third(200);
  const std::size_t k = members.size() / 2;

  for (const ObjectiveKernel* kernel : kernels.all()) {
    SubproblemArena arena;
    std::size_t state_bytes = 0;
    const GreedyResult solved =
        solve_partition(*kernel, members, k, nullptr, arena, nullptr, &state_bytes);

    SubproblemArena reference_arena;
    Subproblem& sub =
        materialize_subproblem_topology(ground_set, members, reference_arena);
    const auto state = incremental_state_for(*kernel, reference_arena);
    state->reset(sub, nullptr);
    const GreedyResult expected =
        subsel::testing::one_at_a_time_lazy_greedy(sub, k, *state);

    EXPECT_EQ(solved.selected, expected.selected) << kernel->name();
    if (kernel->pairwise_params() != nullptr) {
      EXPECT_NEAR(solved.objective, expected.objective,
                  1e-9 * (1.0 + std::abs(expected.objective)));
      EXPECT_EQ(state_bytes, 0u);
    } else {
      EXPECT_EQ(solved.objective, expected.objective) << kernel->name();
      EXPECT_GT(state_bytes, 0u) << kernel->name();
      EXPECT_EQ(solved.kernel_state_bytes, state_bytes);
    }
    EXPECT_GT(solved.materialized_bytes, 0u) << kernel->name();
  }
}

TEST(MarginalGainEngine, IncrementalBaselinesMatchNaiveKernelGreedy) {
  // The full-ground-set engine behind the centralized baselines: lazy greedy
  // through it must select exactly what the gain-recomputing exact oracle
  // (naive_greedy) selects, for every kernel.
  const std::size_t n = 140;
  const Instance instance = random_instance(n, 6, 41400);
  const auto ground_set = instance.ground_set();
  const KernelSet kernels(ground_set);
  for (const ObjectiveKernel* kernel : kernels.all()) {
    const GreedyResult oracle = naive_greedy(*kernel, 25);
    const GreedyResult engine = baselines::lazy_greedy(*kernel, 25);
    EXPECT_EQ(engine.selected, oracle.selected) << kernel->name();
    EXPECT_NEAR(engine.objective, oracle.objective,
                1e-9 * (1.0 + std::abs(oracle.objective)))
        << kernel->name();
    if (kernel->pairwise_params() == nullptr) {
      EXPECT_GT(engine.kernel_state_bytes, 0u) << kernel->name();
      EXPECT_GT(engine.materialized_bytes, 0u) << kernel->name();
    } else {
      // Pairwise maintains one gain per point and materializes nothing; the
      // gain sums still match the oracle's bit for bit.
      EXPECT_EQ(engine.materialized_bytes, 0u);
      EXPECT_EQ(engine.kernel_state_bytes, n * sizeof(double));
      EXPECT_EQ(engine.objective, oracle.objective);
    }
  }
}

TEST(MarginalGainEngine, GainAndBatchMatchOraclePerStep) {
  const Instance instance = random_instance(70, 5, 41410);
  const auto ground_set = instance.ground_set();
  const KernelSet kernels(ground_set);
  const std::size_t n = 70;
  for (const ObjectiveKernel* kernel : kernels.all()) {
    baselines::MarginalGainEngine engine(*kernel);
    EXPECT_TRUE(engine.incremental()) << kernel->name();
    std::vector<std::uint8_t> membership(n, 0);
    std::vector<NodeId> candidates;
    std::vector<double> gains;
    for (const NodeId pick : {NodeId{4}, NodeId{31}, NodeId{66}}) {
      candidates.clear();
      for (std::size_t v = 0; v < n; ++v) {
        if (membership[v] == 0) candidates.push_back(static_cast<NodeId>(v));
      }
      gains.resize(candidates.size());
      engine.gains_batch(candidates, gains);
      for (std::size_t i = 0; i < candidates.size(); ++i) {
        const double oracle = kernel->marginal_gain(membership, candidates[i]);
        EXPECT_NEAR(engine.gain(candidates[i]), oracle,
                    1e-9 * (1.0 + std::abs(oracle)))
            << kernel->name();
        EXPECT_EQ(gains[i], engine.gain(candidates[i])) << kernel->name();
      }
      membership[static_cast<std::size_t>(pick)] = 1;
      engine.select(pick);
      EXPECT_TRUE(engine.is_selected(pick));
    }
  }
}

}  // namespace
}  // namespace subsel::core
