// repair_selection conformance: fixpoint on unmutated selections, the
// delete-of-selected-is-always-repaired guarantee, modular-objective
// equivalence with solving from scratch, the (1-1/e)-style quality bound of
// the greedy top-up against a from-scratch re-solve, constraint feasibility
// of every repaired selection, and deadline degradation.
#include "core/repair.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <optional>
#include <string>
#include <vector>

#include "../testing/constraint_oracle.h"
#include "../testing/property.h"
#include "../testing/test_instances.h"
#include "common/run_control.h"
#include "core/greedy.h"
#include "core/objective_kernel.h"
#include "graph/overlay_ground_set.h"

namespace subsel::core {
namespace {

using subsel::testing::check_property;
using subsel::testing::feasibility_violation;
using subsel::testing::Instance;
using subsel::testing::random_constraints;
using subsel::testing::random_instance;
using subsel::testing::scaled;

std::vector<NodeId> all_ids(std::size_t n) {
  std::vector<NodeId> ids(n);
  for (std::size_t i = 0; i < n; ++i) ids[i] = static_cast<NodeId>(i);
  return ids;
}

GreedyResult solve_all(const graph::GroundSet& ground_set,
                       const ObjectiveKernel& kernel, std::size_t k,
                       const ConstraintSet* constraints = nullptr) {
  SubproblemArena arena;
  return solve_partition(kernel, all_ids(ground_set.num_points()), k,
                         nullptr, arena, PartitionSolver::kPriorityQueue,
                         0.1, 1, nullptr, nullptr, constraints);
}

TEST(RepairSelection, UnmutatedUnconstrainedRepairIsAFixpoint) {
  const Instance instance = random_instance(60, 4, 501);
  const auto ground_set = instance.ground_set();
  const auto params = ObjectiveParams::from_alpha(0.9);
  const PairwiseKernel kernel(ground_set, params);
  const GreedyResult greedy = solve_all(ground_set, kernel, 12);

  const RepairResult repaired = repair_selection(kernel, greedy.selected, 12);
  std::vector<NodeId> expected = greedy.selected;
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(repaired.selected, expected);
  EXPECT_EQ(repaired.kept, 12u);
  EXPECT_EQ(repaired.dropped, 0u);
  EXPECT_EQ(repaired.added, 0u);
  EXPECT_FALSE(repaired.degraded);
}

TEST(RepairSelection, DeleteOfSelectedIsAlwaysRepaired) {
  check_property(
      "delete-of-selected repaired", 120,
      [](std::uint64_t seed, double scale) -> std::optional<std::string> {
        const std::size_t n = scaled(30, scale, 8);
        const std::size_t k = scaled(6, scale, 2);
        const Instance instance = random_instance(n, 3, seed);
        const auto base = instance.ground_set();
        graph::OverlayGroundSet overlay(base);
        const auto params = ObjectiveParams::from_alpha(0.9);
        const PairwiseKernel kernel(overlay, params);

        const GreedyResult greedy = solve_all(overlay, kernel, k);
        if (greedy.selected.size() != k) return "setup: greedy came up short";

        // Delete one of the selected points (seed-dependent choice).
        Rng rng(seed);
        const NodeId victim =
            greedy.selected[rng.uniform_index(greedy.selected.size())];
        overlay.erase(victim);

        const RepairResult repaired = repair_selection(kernel, greedy.selected, k);
        if (std::binary_search(repaired.selected.begin(),
                               repaired.selected.end(), victim)) {
          return "deleted id " + std::to_string(victim) +
                 " survived the repair";
        }
        for (const NodeId v : repaired.selected) {
          if (!overlay.is_live(v)) {
            return "repair selected dead id " + std::to_string(v);
          }
        }
        // n - 1 live points remain, so the top-up must restore full size.
        if (repaired.selected.size() != k) {
          return "repair returned " + std::to_string(repaired.selected.size()) +
                 " of k=" + std::to_string(k) + " with live points to spare";
        }
        if (repaired.kept != k - 1 || repaired.dropped != 1 ||
            repaired.added != 1) {
          return "expected kept=" + std::to_string(k - 1) +
                 " dropped=1 added=1, got kept=" + std::to_string(repaired.kept) +
                 " dropped=" + std::to_string(repaired.dropped) +
                 " added=" + std::to_string(repaired.added);
        }
        return std::nullopt;
      });
}

TEST(RepairSelection, ModularObjectiveRepairMatchesFromScratchExactly) {
  // With beta == 0 the objective is modular and greedy is exact, so repair
  // (keep + top-up) and a from-scratch solve must land on the same
  // objective even after deletions.
  check_property(
      "modular repair == from-scratch", 100,
      [](std::uint64_t seed, double scale) -> std::optional<std::string> {
        const std::size_t n = scaled(24, scale, 8);
        const std::size_t k = scaled(5, scale, 2);
        const Instance instance = random_instance(n, 3, seed);
        const auto base = instance.ground_set();
        graph::OverlayGroundSet overlay(base);
        const ObjectiveParams params{1.0, 0.0};
        const PairwiseKernel kernel(overlay, params);

        const GreedyResult greedy = solve_all(overlay, kernel, k);
        Rng rng(seed ^ 0xdead);
        overlay.erase(greedy.selected[rng.uniform_index(greedy.selected.size())]);

        const RepairResult repaired = repair_selection(kernel, greedy.selected, k);
        const GreedyResult scratch = solve_all(overlay, kernel, k);
        std::vector<NodeId> scratch_sorted = scratch.selected;
        std::sort(scratch_sorted.begin(), scratch_sorted.end());
        const double scratch_objective = kernel.evaluate(
            std::span<const NodeId>(scratch_sorted), nullptr);
        if (std::abs(repaired.objective - scratch_objective) > 1e-9) {
          return "repair objective " + std::to_string(repaired.objective) +
                 " != from-scratch " + std::to_string(scratch_objective);
        }
        return std::nullopt;
      });
}

TEST(RepairSelection, RepairStaysWithinGreedyBoundOfFromScratch) {
  // Submodular case: the top-up is conditioned greedy, so the repaired
  // objective tracks a from-scratch re-solve within the classic greedy
  // quality regime. The bound tested is deliberately loose ((1-1/e) of the
  // re-solve) — the conformance point is that repair never collapses.
  check_property(
      "repair within greedy bound of from-scratch", 120,
      [](std::uint64_t seed, double scale) -> std::optional<std::string> {
        const std::size_t n = scaled(28, scale, 8);
        const std::size_t k = scaled(6, scale, 2);
        const Instance instance = random_instance(n, 3, seed);
        const auto base = instance.ground_set();
        graph::OverlayGroundSet overlay(base);
        const auto params = ObjectiveParams::from_alpha(0.9);
        const PairwiseKernel kernel(overlay, params);

        const GreedyResult greedy = solve_all(overlay, kernel, k);
        std::vector<NodeId> picked = greedy.selected;
        std::sort(picked.begin(), picked.end());
        Rng rng(seed ^ 0xbeef);
        // Mutate: delete one selected and one unselected point.
        overlay.erase(greedy.selected[rng.uniform_index(greedy.selected.size())]);
        for (std::size_t attempts = 0; attempts < n; ++attempts) {
          const auto v = static_cast<NodeId>(rng.uniform_index(n));
          if (overlay.is_live(v) &&
              !std::binary_search(picked.begin(), picked.end(), v)) {
            overlay.erase(v);
            break;
          }
        }

        const RepairResult repaired = repair_selection(kernel, greedy.selected, k);
        const GreedyResult scratch = solve_all(overlay, kernel, k);
        std::vector<NodeId> scratch_sorted = scratch.selected;
        std::sort(scratch_sorted.begin(), scratch_sorted.end());
        const double scratch_objective = kernel.evaluate(
            std::span<const NodeId>(scratch_sorted), nullptr);
        if (repaired.objective < (1.0 - 1.0 / std::exp(1.0)) * scratch_objective - 1e-9) {
          return "repair objective " + std::to_string(repaired.objective) +
                 " fell below (1-1/e) of from-scratch " +
                 std::to_string(scratch_objective);
        }
        return std::nullopt;
      });
}

TEST(RepairSelection, ConstrainedRepairIsFeasibleAndDropsViolators) {
  check_property(
      "constrained repair feasibility", 120,
      [](std::uint64_t seed, double scale) -> std::optional<std::string> {
        const std::size_t n = scaled(20, scale, 8);
        const std::size_t k = scaled(6, scale, 2);
        const Instance instance = random_instance(n, 3, seed);
        const auto ground_set = instance.ground_set();
        const auto params = ObjectiveParams::from_alpha(0.9);
        const PairwiseKernel kernel(ground_set, params);

        // Select unconstrained, then impose constraints the selection was
        // never told about — repair must drop violators and top up.
        const GreedyResult greedy = solve_all(ground_set, kernel, k);
        Rng rng(seed ^ 0xfeed);
        const ConstraintSet constraints =
            subsel::testing::random_constraints(n, rng);

        RepairConfig config;
        config.constraints = &constraints;
        const RepairResult repaired =
            repair_selection(kernel, greedy.selected, k, config);
        const std::string violation =
            feasibility_violation(repaired.selected, constraints, k);
        if (!violation.empty()) return violation;
        if (repaired.kept + repaired.dropped != greedy.selected.size()) {
          return "kept+dropped != |previous|";
        }
        return std::nullopt;
      });
}

TEST(RepairSelection, ExpiredDeadlineDegradesToTheKeptPrefix) {
  const Instance instance = random_instance(40, 4, 777);
  const auto base = instance.ground_set();
  graph::OverlayGroundSet overlay(base);
  const auto params = ObjectiveParams::from_alpha(0.9);
  const PairwiseKernel kernel(overlay, params);
  const GreedyResult greedy = solve_all(overlay, kernel, 8);
  overlay.erase(greedy.selected[0]);

  RepairConfig config;
  config.deadline = Deadline::after_ms(0);  // already expired
  const RepairResult repaired =
      repair_selection(kernel, greedy.selected, 8, config);
  EXPECT_TRUE(repaired.degraded);
  EXPECT_FALSE(repaired.degraded_reason.empty());
  // The kept survivors are still a valid (smaller) selection.
  EXPECT_EQ(repaired.selected.size(), 7u);
  EXPECT_EQ(repaired.added, 0u);
  for (const NodeId v : repaired.selected) EXPECT_TRUE(overlay.is_live(v));
}

}  // namespace
}  // namespace subsel::core
