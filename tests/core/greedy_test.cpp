#include "core/greedy.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "../testing/naive_greedy.h"
#include "../testing/test_instances.h"
#include "core/coverage_kernel.h"
#include "core/facility_location_kernel.h"

namespace subsel::core {
namespace {

using testing::Instance;
using testing::brute_force_optimum;
using testing::naive_greedy;
using testing::random_instance;

/// The induced subproblem spelled out from its definition (Section 4.4):
/// sorted member ids, member-to-member edges in neighbor-list order, and
/// utilities conditioned on `state`'s selected points. The bitwise reference
/// for materialize_subproblem's CSR.
Subproblem expected_subproblem(const graph::GroundSet& ground_set,
                               std::vector<NodeId> members, ObjectiveParams params,
                               const SelectionState* state = nullptr) {
  std::sort(members.begin(), members.end());
  Subproblem sub;
  sub.global_ids = members;
  sub.offsets.push_back(0);
  std::vector<graph::Edge> scratch;
  for (const NodeId v : members) {
    double priority = ground_set.utility(v);
    ground_set.neighbors(v, scratch);
    for (const graph::Edge& e : scratch) {
      if (state != nullptr && state->is_selected(e.neighbor)) {
        priority -= params.pair_scale() * e.weight;
        continue;
      }
      const auto it = std::lower_bound(members.begin(), members.end(), e.neighbor);
      if (it != members.end() && *it == e.neighbor) {
        sub.edges.push_back(Subproblem::LocalEdge{
            static_cast<std::uint32_t>(it - members.begin()), e.weight});
      }
    }
    sub.priorities.push_back(priority);
    sub.offsets.push_back(static_cast<std::int64_t>(sub.edges.size()));
  }
  return sub;
}

void expect_same_subproblem(const Subproblem& got, const Subproblem& want) {
  EXPECT_EQ(got.global_ids, want.global_ids);
  EXPECT_EQ(got.priorities, want.priorities);
  EXPECT_EQ(got.offsets, want.offsets);
  ASSERT_EQ(got.edges.size(), want.edges.size());
  for (std::size_t e = 0; e < want.edges.size(); ++e) {
    EXPECT_EQ(got.edges[e].neighbor, want.edges[e].neighbor);
    EXPECT_EQ(got.edges[e].weight, want.edges[e].weight);
  }
}

/// Algorithm 2 on the subproblem's induced graph with its (conditioned)
/// priorities as utilities, via centralized_greedy, mapped back to global
/// ids: the reference for greedy_on_subproblem on partial subproblems.
GreedyResult centralized_on_subproblem(const Subproblem& sub, std::size_t k,
                                       ObjectiveParams params) {
  std::vector<graph::NeighborList> lists(sub.size());
  for (std::size_t i = 0; i < sub.size(); ++i) {
    for (auto e = sub.offsets[i]; e < sub.offsets[i + 1]; ++e) {
      const auto& edge = sub.edges[static_cast<std::size_t>(e)];
      lists[i].edges.push_back(
          graph::Edge{static_cast<NodeId>(edge.neighbor), edge.weight});
    }
  }
  GreedyResult result = centralized_greedy(graph::SimilarityGraph::from_lists(lists),
                                           sub.priorities, params, k);
  for (NodeId& v : result.selected) v = sub.global_ids[static_cast<std::size_t>(v)];
  return result;
}

TEST(CentralizedGreedy, PicksHighestUtilityWithoutEdges) {
  // No edges: greedy = top-k utilities.
  Instance instance;
  instance.graph = graph::SimilarityGraph::from_lists(
      std::vector<graph::NeighborList>(5));
  instance.utilities = {0.1, 0.9, 0.5, 0.7, 0.3};
  const auto result = centralized_greedy(instance.graph, instance.utilities,
                                         ObjectiveParams{0.9, 0.1}, 3);
  EXPECT_EQ(result.selected, (std::vector<NodeId>{1, 3, 2}));
  EXPECT_NEAR(result.objective, 0.9 * (0.9 + 0.7 + 0.5), 1e-12);
}

TEST(CentralizedGreedy, PenalizesNeighborsOfSelectedPoints) {
  // Two clumps: {0,1} highly similar with high utility, {2} slightly lower
  // utility but independent. With a strong pairwise term, greedy takes 0 then
  // prefers 2 over 1.
  std::vector<graph::NeighborList> lists(3);
  lists[0].edges = {{1, 1.0f}};
  Instance instance;
  instance.graph = graph::SimilarityGraph::from_lists(lists).symmetrized();
  instance.utilities = {1.0, 0.95, 0.6};
  const auto result = centralized_greedy(instance.graph, instance.utilities,
                                         ObjectiveParams{0.5, 0.5}, 2);
  EXPECT_EQ(result.selected, (std::vector<NodeId>{0, 2}));
}

TEST(CentralizedGreedy, SelectsEverythingWhenKIsN) {
  const Instance instance = random_instance(12, 3, 41);
  const auto result = centralized_greedy(instance.graph, instance.utilities,
                                         ObjectiveParams{0.9, 0.1}, 100);
  EXPECT_EQ(result.selected.size(), 12u);
  std::set<NodeId> unique(result.selected.begin(), result.selected.end());
  EXPECT_EQ(unique.size(), 12u);
}

TEST(CentralizedGreedy, ObjectiveSumMatchesEvaluation) {
  const Instance instance = random_instance(60, 5, 42);
  const auto ground_set = instance.ground_set();
  const ObjectiveParams params{0.9, 0.1};
  const auto result = centralized_greedy(instance.graph, instance.utilities, params, 20);
  PairwiseObjective objective(ground_set, params);
  EXPECT_NEAR(result.objective, objective.evaluate(result.selected), 1e-9);
}

/// The heap implementation (Alg. 2) must match the gain-recomputing reference
/// (Alg. 1) exactly — same subsets, same order.
class GreedyEquivalenceTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GreedyEquivalenceTest, HeapMatchesNaiveReference) {
  const Instance instance = random_instance(40, 4, GetParam());
  const auto ground_set = instance.ground_set();
  for (const double alpha : {0.9, 0.5, 0.1}) {
    const auto params = ObjectiveParams::from_alpha(alpha);
    const auto fast = centralized_greedy(instance.graph, instance.utilities, params, 15);
    const auto reference = naive_greedy(ground_set, params, 15);
    EXPECT_EQ(fast.selected, reference.selected) << "alpha=" << alpha;
    EXPECT_NEAR(fast.objective, reference.objective, 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, GreedyEquivalenceTest,
                         ::testing::Values(51, 52, 53, 54, 55, 56));

/// Nemhauser et al.: greedy achieves at least (1 - 1/e) of the optimum for
/// monotone instances. Utilities are boosted so the objective is monotone.
class ApproximationTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ApproximationTest, GreedyWithinOneMinusOneOverEOfOptimum) {
  Instance instance = random_instance(14, 3, GetParam(), /*max_weight=*/0.5,
                                      /*max_utility=*/2.0);
  // Ensure monotonicity: lift utilities by the Appendix-A offset.
  const auto params = ObjectiveParams{0.7, 0.3};
  {
    const auto ground_set = instance.ground_set();
    const double delta = PairwiseObjective(ground_set, params).monotonicity_offset();
    for (double& u : instance.utilities) u += delta;
  }
  const auto ground_set = instance.ground_set();
  const std::size_t k = 5;
  const double optimum = brute_force_optimum(ground_set, params, k);
  const auto greedy = centralized_greedy(instance.graph, instance.utilities, params, k);
  EXPECT_GE(greedy.objective + 1e-9, (1.0 - 1.0 / std::exp(1.0)) * optimum);
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, ApproximationTest,
                         ::testing::Values(61, 62, 63, 64, 65));

TEST(Subproblem, MaterializationKeepsOnlyIntraSubsetEdges) {
  // Path 0-1-2-3; members {0, 2, 3}: only edge 2-3 survives.
  std::vector<graph::NeighborList> lists(4);
  lists[0].edges = {{1, 0.5f}};
  lists[1].edges = {{2, 0.5f}};
  lists[2].edges = {{3, 0.5f}};
  Instance instance;
  instance.graph = graph::SimilarityGraph::from_lists(lists).symmetrized();
  instance.utilities = {1.0, 1.0, 1.0, 1.0};
  const auto ground_set = instance.ground_set();

  SubproblemArena arena;
  const std::vector<NodeId> members{3, 0, 2};
  const Subproblem& sub = materialize_subproblem(
      ground_set, members, ObjectiveParams{0.9, 0.1}, nullptr, arena);
  EXPECT_EQ(sub.global_ids, (std::vector<NodeId>{0, 2, 3}));
  EXPECT_EQ(sub.edges.size(), 2u);  // 2->3 and 3->2 in local ids
  const auto neighbors_of_local_1 =
      std::make_pair(sub.offsets[1], sub.offsets[2]);  // local 1 = global 2
  EXPECT_EQ(neighbors_of_local_1.second - neighbors_of_local_1.first, 1);
  EXPECT_EQ(sub.edges[static_cast<std::size_t>(neighbors_of_local_1.first)].neighbor,
            2u);  // local id of global 3
}

TEST(Subproblem, ConditioningSubtractsSelectedNeighborEdges) {
  std::vector<graph::NeighborList> lists(3);
  lists[0].edges = {{1, 0.8f}};
  Instance instance;
  instance.graph = graph::SimilarityGraph::from_lists(lists).symmetrized();
  instance.utilities = {1.0, 1.0, 1.0};
  const auto ground_set = instance.ground_set();

  SelectionState state(3);
  state.select(1);
  const ObjectiveParams params{0.5, 0.5};
  SubproblemArena arena;
  const std::vector<NodeId> members{0, 2};
  const Subproblem& sub =
      materialize_subproblem(ground_set, members, params, &state, arena);
  // Global 0 has selected neighbor 1: priority = 1.0 - 1.0*0.8.
  EXPECT_NEAR(sub.priorities[0], 1.0 - 0.8, 1e-6);
  EXPECT_NEAR(sub.priorities[1], 1.0, 1e-12);
  EXPECT_TRUE(sub.edges.empty());
}

TEST(Subproblem, GreedyOnFullSubproblemMatchesCentralized) {
  const Instance instance = random_instance(50, 5, 72);
  const auto ground_set = instance.ground_set();
  const ObjectiveParams params{0.9, 0.1};
  std::vector<NodeId> all(50);
  for (std::size_t i = 0; i < 50; ++i) all[i] = static_cast<NodeId>(i);
  SubproblemArena arena;
  const Subproblem& sub =
      materialize_subproblem(ground_set, all, params, nullptr, arena);
  const auto via_subproblem = greedy_on_subproblem(sub, 20, params, arena);
  const auto direct = centralized_greedy(instance.graph, instance.utilities, params, 20);
  EXPECT_EQ(via_subproblem.selected, direct.selected);
  EXPECT_EQ(via_subproblem.objective, direct.objective);
  const auto naive = naive_greedy(ground_set, params, 20);
  EXPECT_EQ(via_subproblem.selected, naive.selected);
  EXPECT_NEAR(via_subproblem.objective, naive.objective, 1e-9);
}

TEST(Subproblem, GreedyCapsAtSubproblemSize) {
  const Instance instance = random_instance(10, 2, 73);
  const auto ground_set = instance.ground_set();
  const ObjectiveParams params{0.9, 0.1};
  SubproblemArena arena;
  const std::vector<NodeId> members{1, 4, 7};
  const Subproblem& sub =
      materialize_subproblem(ground_set, members, params, nullptr, arena);
  const auto result = greedy_on_subproblem(sub, 10, params, arena);
  EXPECT_EQ(result.selected.size(), 3u);
}

/// The zero-copy/arena path (scatter-map membership, reused storage, fused
/// heap updates) must materialize exactly the induced subproblem and pick
/// exactly what Algorithm 2 picks on it: identical subsets in identical
/// order, identical objectives, identical CSR.
class ArenaEquivalenceTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ArenaEquivalenceTest, ArenaPathMatchesInducedSubproblem) {
  Rng rng(GetParam());
  const Instance instance = random_instance(80, 5, GetParam());
  const auto ground_set = instance.ground_set();
  SubproblemArena arena;  // deliberately reused across every subcase below

  for (const double alpha : {0.9, 0.5, 0.1}) {
    const auto params = ObjectiveParams::from_alpha(alpha);
    for (std::size_t trial = 0; trial < 4; ++trial) {
      // Random member subset of random size (unsorted on purpose).
      std::vector<NodeId> members;
      for (NodeId v = 0; v < 80; ++v) {
        if (rng.bernoulli(0.4)) members.push_back(v);
      }
      rng.shuffle(std::span<NodeId>(members));
      if (members.empty()) members.push_back(static_cast<NodeId>(trial));
      const std::size_t k = 1 + rng.uniform_index(members.size());

      const Subproblem& arena_sub =
          materialize_subproblem(ground_set, members, params, nullptr, arena);
      expect_same_subproblem(arena_sub,
                             expected_subproblem(ground_set, members, params));

      const auto reference = centralized_on_subproblem(arena_sub, k, params);
      const auto arena_result = greedy_on_subproblem(arena_sub, k, params, arena);
      EXPECT_EQ(arena_result.selected, reference.selected);
      EXPECT_EQ(arena_result.objective, reference.objective);
    }
  }
}

TEST_P(ArenaEquivalenceTest, ArenaPathMatchesInducedSubproblemWithConditioning) {
  const Instance instance = random_instance(60, 4, GetParam());
  const auto ground_set = instance.ground_set();
  const auto params = ObjectiveParams::from_alpha(0.5);

  SelectionState state(60);
  Rng rng(GetParam() ^ 0xC0DEULL);
  std::vector<NodeId> members;
  for (NodeId v = 0; v < 60; ++v) {
    if (rng.bernoulli(0.2)) {
      state.select(v);
    } else if (rng.bernoulli(0.5)) {
      members.push_back(v);
    }
  }
  if (members.empty()) GTEST_SKIP();

  SubproblemArena arena;
  const Subproblem& arena_sub =
      materialize_subproblem(ground_set, members, params, &state, arena);
  expect_same_subproblem(arena_sub,
                         expected_subproblem(ground_set, members, params, &state));

  const std::size_t k = (members.size() + 1) / 2;
  const auto reference = centralized_on_subproblem(arena_sub, k, params);
  const auto arena_result = greedy_on_subproblem(arena_sub, k, params, arena);
  EXPECT_EQ(arena_result.selected, reference.selected);
  EXPECT_EQ(arena_result.objective, reference.objective);
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, ArenaEquivalenceTest,
                         ::testing::Values(81, 82, 83, 84, 85, 86, 87, 88));

TEST(SubproblemArena, RejectsDuplicates) {
  const Instance instance = random_instance(5, 2, 92);
  const auto ground_set = instance.ground_set();
  SubproblemArena arena;
  const std::vector<NodeId> members{1, 1};
  EXPECT_THROW(materialize_subproblem(ground_set, members,
                                      ObjectiveParams{0.9, 0.1}, nullptr, arena),
               std::invalid_argument);
}

TEST(SubproblemArena, BinarySearchFallbackBeyondDenseLimit) {
  // A view that reports a ground set too large for the dense scatter map but
  // only ever hands out small ids — forces the lower_bound fallback branch.
  class HugeView final : public graph::GroundSet {
   public:
    explicit HugeView(const graph::InMemoryGroundSet& inner) : inner_(inner) {}
    std::size_t num_points() const override {
      return SubproblemArena::kDenseMembershipLimit + 1;
    }
    double utility(NodeId v) const override { return inner_.utility(v); }
    void neighbors(NodeId v, std::vector<graph::Edge>& out) const override {
      inner_.neighbors(v, out);
    }

   private:
    const graph::InMemoryGroundSet& inner_;
  };

  const Instance instance = random_instance(50, 5, 93);
  const auto ground_set = instance.ground_set();
  const HugeView huge(ground_set);
  const ObjectiveParams params{0.9, 0.1};
  std::vector<NodeId> members;
  for (NodeId v = 0; v < 50; v += 2) members.push_back(v);

  SubproblemArena dense_arena;
  const Subproblem& dense =
      materialize_subproblem(ground_set, members, params, nullptr, dense_arena);
  const auto dense_result = greedy_on_subproblem(dense, 10, params, dense_arena);

  SubproblemArena arena;
  const Subproblem& fallback =
      materialize_subproblem(huge, members, params, nullptr, arena);
  expect_same_subproblem(fallback, expected_subproblem(ground_set, members, params));
  const auto fallback_result = greedy_on_subproblem(fallback, 10, params, arena);
  EXPECT_EQ(fallback_result.selected, dense_result.selected);
}

TEST(SubproblemArena, NeighborIdsPastTheMapAreNotMembers) {
  // A mutable ground set can hand out a neighbor id inserted after the
  // scatter map was sized for num_points(). Such ids are never members: the
  // edges are dropped, not looked up past the end of the map.
  class GrownView final : public graph::GroundSet {
   public:
    std::size_t num_points() const override { return 4; }
    double utility(NodeId v) const override { return 1.0 + static_cast<double>(v); }
    void neighbors(NodeId v, std::vector<graph::Edge>& out) const override {
      out.clear();
      if (v == 0) out = {{1, 0.5f}, {4, 0.25f}, {NodeId{1} << 40, 0.25f}};
      if (v == 1) out = {{0, 0.5f}, {4, 0.25f}};
    }
  };

  const GrownView ground_set;
  const ObjectiveParams params{0.9, 0.1};
  const std::vector<NodeId> members{0, 1, 2, 3};
  SubproblemArena arena;
  const Subproblem& sub =
      materialize_subproblem(ground_set, members, params, nullptr, arena);
  ASSERT_EQ(sub.offsets, (std::vector<std::int64_t>{0, 1, 2, 2, 2}));
  EXPECT_EQ(sub.edges[0].neighbor, 1u);
  EXPECT_EQ(sub.edges[1].neighbor, 0u);
  const Subproblem& topology =
      materialize_subproblem_topology(ground_set, members, arena);
  EXPECT_EQ(topology.offsets, (std::vector<std::int64_t>{0, 1, 2, 2, 2}));
}

TEST(SolvePartition, ConditioningIgnoresNeighborIdsPastTheState) {
  // A neighbor inserted into a mutable ground set after a conditioning state
  // was sized has an id past the state. That point was never selected, so
  // every kernel's conditioning must read it as unselected — the solve equals
  // one over the same view without the edge — instead of reading past the
  // state.
  class View final : public graph::GroundSet {
   public:
    explicit View(bool grown) : grown_(grown) {}
    std::size_t num_points() const override { return 4; }
    double utility(NodeId v) const override {
      return 1.0 + 0.25 * static_cast<double>(v);
    }
    void neighbors(NodeId v, std::vector<graph::Edge>& out) const override {
      out.clear();
      if (v == 0) out = {{1, 0.5f}, {3, 0.3f}};
      if (v == 0 && grown_) out.push_back({NodeId{1} << 40, 0.25f});
      if (v == 1) out = {{0, 0.5f}, {2, 0.4f}};
      if (v == 2) out = {{1, 0.4f}};
      if (v == 3) out = {{0, 0.3f}};
    }

   private:
    bool grown_;
  };

  const View grown(true);
  const View plain(false);
  SelectionState conditioning(4);
  conditioning.select(3);
  const std::vector<NodeId> members{0, 1, 2};
  const auto solve = [&](const ObjectiveKernel& kernel) {
    SubproblemArena arena;
    return solve_partition(kernel, members, 2, &conditioning, arena);
  };
  const auto expect_same = [&](const ObjectiveKernel& on_grown,
                               const ObjectiveKernel& on_plain) {
    const GreedyResult got = solve(on_grown);
    const GreedyResult want = solve(on_plain);
    EXPECT_EQ(got.selected, want.selected) << on_grown.name();
    EXPECT_EQ(got.objective, want.objective) << on_grown.name();
    EXPECT_EQ(got.selected.size(), 2u) << on_grown.name();
  };
  expect_same(PairwiseKernel(grown, {}), PairwiseKernel(plain, {}));
  expect_same(FacilityLocationKernel(grown, {}), FacilityLocationKernel(plain, {}));
  expect_same(SaturatedCoverageKernel(grown, {}), SaturatedCoverageKernel(plain, {}));
}

TEST(NaiveGreedy, EmptyBudget) {
  const Instance instance = random_instance(10, 2, 74);
  const auto ground_set = instance.ground_set();
  const auto result = naive_greedy(ground_set, ObjectiveParams{0.9, 0.1}, 0);
  EXPECT_TRUE(result.selected.empty());
  EXPECT_EQ(result.objective, 0.0);
}

}  // namespace
}  // namespace subsel::core
