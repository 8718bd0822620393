// OverlayGroundSet conformance: stable-id insert/delete semantics, the
// validate-then-commit strong exception guarantee (argument rejects and the
// "overlay.mutate" failpoint both leave the overlay untouched), the
// overlay-vs-materialized differential property (solving on the overlay and
// on its CSR snapshot must give identical selections), and the
// mutate-while-solve stress the TSan job runs.
#include "graph/overlay_ground_set.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <limits>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "../testing/property.h"
#include "../testing/test_instances.h"
#include "common/failpoint.h"
#include "core/greedy.h"
#include "core/objective_kernel.h"

namespace subsel::graph {
namespace {

using subsel::testing::check_property;
using subsel::testing::Instance;
using subsel::testing::random_instance;
using subsel::testing::scaled;

/// Full overlay state snapshot for the strong-guarantee checks.
struct Snapshot {
  std::size_t num_points;
  std::size_t num_live;
  std::uint64_t version;
  std::vector<NodeId> deleted;
  std::vector<std::vector<Edge>> neighborhoods;

  static Snapshot of(const OverlayGroundSet& overlay) {
    Snapshot snap;
    snap.num_points = overlay.num_points();
    snap.num_live = overlay.num_live();
    snap.version = overlay.version();
    snap.deleted = overlay.deleted_ids();
    snap.neighborhoods.resize(snap.num_points);
    for (std::size_t v = 0; v < snap.num_points; ++v) {
      overlay.neighbors(static_cast<NodeId>(v), snap.neighborhoods[v]);
    }
    return snap;
  }

  bool operator==(const Snapshot& other) const {
    if (num_points != other.num_points || num_live != other.num_live ||
        version != other.version || deleted != other.deleted ||
        neighborhoods.size() != other.neighborhoods.size()) {
      return false;
    }
    for (std::size_t v = 0; v < neighborhoods.size(); ++v) {
      if (neighborhoods[v].size() != other.neighborhoods[v].size()) return false;
      for (std::size_t e = 0; e < neighborhoods[v].size(); ++e) {
        if (neighborhoods[v][e].neighbor != other.neighborhoods[v][e].neighbor ||
            neighborhoods[v][e].weight != other.neighborhoods[v][e].weight) {
          return false;
        }
      }
    }
    return true;
  }
};

TEST(OverlayGroundSet, InsertAllocatesStableIdsAndSymmetricEdges) {
  const Instance instance = random_instance(10, 3, 11);
  const auto base = instance.ground_set();
  OverlayGroundSet overlay(base);
  EXPECT_EQ(overlay.num_points(), 10u);
  EXPECT_EQ(overlay.num_live(), 10u);
  EXPECT_EQ(overlay.version(), 0u);

  const std::vector<Edge> edges = {{2, 0.5f}, {5, 0.25f}};
  const NodeId a = overlay.insert(1.5, edges);
  EXPECT_EQ(a, 10);
  const NodeId b = overlay.insert(2.0, std::vector<Edge>{{a, 0.75f}});
  EXPECT_EQ(b, 11);
  EXPECT_EQ(overlay.num_points(), 12u);
  EXPECT_EQ(overlay.version(), 2u);
  EXPECT_DOUBLE_EQ(overlay.utility(a), 1.5);

  // Forward and reverse edges both visible.
  std::vector<Edge> got;
  overlay.neighbors(a, got);
  ASSERT_EQ(got.size(), 3u);  // 2, 5, and the reverse edge from b
  EXPECT_EQ(got[0].neighbor, 2);
  EXPECT_EQ(got[1].neighbor, 5);
  EXPECT_EQ(got[2].neighbor, b);
  overlay.neighbors(2, got);
  EXPECT_TRUE(std::any_of(got.begin(), got.end(),
                          [a](const Edge& e) { return e.neighbor == a; }));
}

TEST(OverlayGroundSet, EraseZeroesThePointAndFiltersNeighborLists) {
  const Instance instance = random_instance(12, 4, 17);
  const auto base = instance.ground_set();
  OverlayGroundSet overlay(base);

  std::vector<Edge> before;
  overlay.neighbors(0, before);
  ASSERT_FALSE(before.empty());
  const NodeId victim = before[0].neighbor;

  overlay.erase(victim);
  EXPECT_FALSE(overlay.is_live(victim));
  EXPECT_EQ(overlay.num_live(), 11u);
  EXPECT_EQ(overlay.num_points(), 12u);  // id space never shrinks
  EXPECT_DOUBLE_EQ(overlay.utility(victim), 0.0);
  std::vector<Edge> dead_edges;
  overlay.neighbors(victim, dead_edges);
  EXPECT_TRUE(dead_edges.empty());
  std::vector<Edge> after;
  overlay.neighbors(0, after);
  EXPECT_TRUE(std::none_of(after.begin(), after.end(), [victim](const Edge& e) {
    return e.neighbor == victim;
  }));
  EXPECT_EQ(overlay.deleted_ids(), std::vector<NodeId>{victim});

  // Live ids exclude exactly the victim.
  const std::vector<NodeId> live = overlay.live_ids();
  EXPECT_EQ(live.size(), 11u);
  EXPECT_FALSE(std::binary_search(live.begin(), live.end(), victim));
}

TEST(OverlayGroundSet, ArgumentRejectsLeaveTheOverlayUntouched) {
  const Instance instance = random_instance(8, 3, 23);
  const auto base = instance.ground_set();
  OverlayGroundSet overlay(base);
  overlay.erase(3);
  const Snapshot before = Snapshot::of(overlay);

  // insert: dead neighbor, out-of-range neighbor, negative weight,
  // non-finite utility, duplicate neighbor.
  EXPECT_THROW(overlay.insert(1.0, std::vector<Edge>{{3, 0.5f}}),
               std::invalid_argument);
  EXPECT_THROW(overlay.insert(1.0, std::vector<Edge>{{100, 0.5f}}),
               std::invalid_argument);
  EXPECT_THROW(overlay.insert(1.0, std::vector<Edge>{{1, -0.5f}}),
               std::invalid_argument);
  EXPECT_THROW(overlay.insert(std::numeric_limits<double>::quiet_NaN(),
                              std::vector<Edge>{{1, 0.5f}}),
               std::invalid_argument);
  EXPECT_THROW(overlay.insert(1.0, std::vector<Edge>{{1, 0.5f}, {1, 0.25f}}),
               std::invalid_argument);
  // erase: out of range, already deleted.
  EXPECT_THROW(overlay.erase(100), std::invalid_argument);
  EXPECT_THROW(overlay.erase(3), std::invalid_argument);

  EXPECT_TRUE(Snapshot::of(overlay) == before);
}

TEST(OverlayGroundSet, MutateFailpointHasTheStrongExceptionGuarantee) {
  const Instance instance = random_instance(8, 3, 29);
  const auto base = instance.ground_set();
  OverlayGroundSet overlay(base);
  const Snapshot before = Snapshot::of(overlay);

  failpoint::disarm_all();
  failpoint::arm_from_spec("overlay.mutate=nth(1)");
  EXPECT_THROW(overlay.insert(1.0, std::vector<Edge>{{1, 0.5f}}),
               failpoint::FailpointError);
  EXPECT_TRUE(Snapshot::of(overlay) == before);

  failpoint::arm_from_spec("overlay.mutate=nth(1)");
  EXPECT_THROW(overlay.erase(0), failpoint::FailpointError);
  EXPECT_TRUE(Snapshot::of(overlay) == before);
  failpoint::disarm_all();

  // Disarmed, the same mutations commit.
  EXPECT_NO_THROW(overlay.insert(1.0, std::vector<Edge>{{1, 0.5f}}));
  EXPECT_NO_THROW(overlay.erase(0));
  EXPECT_EQ(overlay.version(), 2u);
}

TEST(OverlayGroundSet, SolveOnOverlayMatchesSolveOnMaterialization) {
  check_property(
      "overlay vs materialized differential", 60,
      [](std::uint64_t seed, double scale) -> std::optional<std::string> {
        const std::size_t n = scaled(40, scale, 8);
        const std::size_t k = scaled(8, scale, 2);
        const Instance instance = random_instance(n, 4, seed);
        const auto base = instance.ground_set();
        OverlayGroundSet overlay(base);

        // Random mutation burst: a few deletes and inserts.
        Rng rng(seed ^ 0x0ffe);
        const std::size_t mutations = 2 + rng.uniform_index(6);
        for (std::size_t m = 0; m < mutations; ++m) {
          if (rng.uniform() < 0.5 && overlay.num_live() > k + 2) {
            const std::vector<NodeId> live = overlay.live_ids();
            overlay.erase(live[rng.uniform_index(live.size())]);
          } else {
            const std::vector<NodeId> live = overlay.live_ids();
            std::vector<Edge> edges;
            const std::size_t degree = 1 + rng.uniform_index(3);
            for (std::size_t e = 0; e < degree; ++e) {
              const NodeId target = live[rng.uniform_index(live.size())];
              const bool dup = std::any_of(
                  edges.begin(), edges.end(),
                  [target](const Edge& edge) { return edge.neighbor == target; });
              if (!dup) {
                edges.push_back(
                    Edge{target, static_cast<float>(rng.uniform(0.1, 1.0))});
              }
            }
            overlay.insert(rng.uniform(0.5, 2.0), edges);
          }
        }

        const OverlayGroundSet::Materialized materialized = overlay.materialize();
        const InMemoryGroundSet flat(materialized.graph, materialized.utilities);
        if (flat.num_points() != overlay.num_points()) {
          return "materialization changed the id space";
        }

        const auto params = core::ObjectiveParams::from_alpha(0.9);
        const core::PairwiseKernel overlay_kernel(overlay, params);
        const core::PairwiseKernel flat_kernel(flat, params);
        std::vector<NodeId> members(overlay.num_points());
        for (std::size_t i = 0; i < members.size(); ++i) {
          members[i] = static_cast<NodeId>(i);
        }
        core::SubproblemArena arena_a, arena_b;
        const core::GreedyResult on_overlay =
            core::solve_partition(overlay_kernel, members, k, nullptr, arena_a,
                                  core::PartitionSolver::kPriorityQueue, 0.1, seed);
        const core::GreedyResult on_flat =
            core::solve_partition(flat_kernel, members, k, nullptr, arena_b,
                                  core::PartitionSolver::kPriorityQueue, 0.1, seed);
        if (on_overlay.selected != on_flat.selected) {
          return "selections diverge between overlay and materialization";
        }
        if (on_overlay.objective != on_flat.objective) {
          return "objectives diverge between overlay and materialization";
        }
        return std::nullopt;
      });
}

TEST(OverlayGroundSet, MutateWhileSolveStress) {
  // Readers copy under the shared lock; mutators take the exclusive lock.
  // This is the TSan target: concurrent solves, point reads, and a mutation
  // stream must be race-free (each read call sees SOME consistent state).
  const Instance instance = random_instance(120, 5, 31);
  const auto base = instance.ground_set();
  OverlayGroundSet overlay(base);
  const auto params = core::ObjectiveParams::from_alpha(0.9);

  std::atomic<bool> stop{false};
  std::atomic<std::size_t> solves{0};

  std::thread mutator([&] {
    Rng rng(91);
    while (!stop.load(std::memory_order_relaxed)) {
      const std::vector<NodeId> live = overlay.live_ids();
      if (rng.uniform() < 0.4 && live.size() > 60) {
        overlay.erase(live[rng.uniform_index(live.size())]);
      } else {
        const NodeId target = live[rng.uniform_index(live.size())];
        overlay.insert(rng.uniform(0.5, 2.0),
                       std::vector<Edge>{{target, 0.5f}});
      }
      std::this_thread::yield();
    }
  });

  std::thread reader([&] {
    std::vector<Edge> edges;
    Rng rng(92);
    while (!stop.load(std::memory_order_relaxed)) {
      const std::size_t n = overlay.num_points();
      const auto v = static_cast<NodeId>(rng.uniform_index(n));
      overlay.neighbors(v, edges);
      for (const Edge& e : edges) {
        ASSERT_GE(e.neighbor, 0);
        ASSERT_LT(static_cast<std::size_t>(e.neighbor), overlay.num_points());
      }
      (void)overlay.utility(v);
      (void)overlay.is_live(v);
    }
  });

  // Solver thread: repeated small solves over the base id range (always
  // allocated, possibly deleted mid-solve — the solve must stay valid).
  std::vector<NodeId> members(120);
  for (std::size_t i = 0; i < 120; ++i) members[i] = static_cast<NodeId>(i);
  core::SubproblemArena arena;
  for (int iteration = 0; iteration < 30; ++iteration) {
    const core::PairwiseKernel kernel(overlay, params);
    const core::GreedyResult result =
        core::solve_partition(kernel, members, 10, nullptr, arena,
                              core::PartitionSolver::kPriorityQueue, 0.1, 7);
    ASSERT_LE(result.selected.size(), 10u);
    for (const NodeId v : result.selected) {
      ASSERT_GE(v, 0);
      ASSERT_LT(static_cast<std::size_t>(v), 120u);
    }
    ++solves;
  }

  stop.store(true);
  mutator.join();
  reader.join();
  EXPECT_EQ(solves.load(), 30u);
}

}  // namespace
}  // namespace subsel::graph
