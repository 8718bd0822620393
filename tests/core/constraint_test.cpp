// ConstraintSet/ConstraintTracker semantics plus the randomized conformance
// properties of the constrained greedy drivers: every selection is feasible
// (audited by the brute-force oracle layer's shared predicates), maximal
// (greedy only stops short of k when nothing feasible remains — valid
// because every family is monotone infeasible under growth), and
// bit-identical to the unconstrained path when the constraints don't bind.
#include "core/constraints.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "../testing/constraint_oracle.h"
#include "../testing/property.h"
#include "../testing/test_instances.h"
#include "core/greedy.h"
#include "core/objective.h"
#include "core/objective_kernel.h"

namespace subsel::core {
namespace {

using subsel::testing::check_property;
using subsel::testing::constrained_brute_force;
using subsel::testing::feasibility_violation;
using subsel::testing::Instance;
using subsel::testing::random_constraints;
using subsel::testing::random_instance;
using subsel::testing::scaled;

TEST(ConstraintSetValidate, RejectsInconsistentConfigurations) {
  {
    ConstraintSet c;
    c.cost_budget = 1.0;
    c.costs = {0.5, 0.5};  // ground set has 3 points
    EXPECT_THROW(c.validate(3), std::invalid_argument);
  }
  {
    ConstraintSet c;
    c.cost_budget = 1.0;
    c.costs = {0.5, -0.1, 0.5};
    EXPECT_THROW(c.validate(3), std::invalid_argument);
  }
  {
    ConstraintSet c;
    c.costs = {0.5, 0.5, 0.5};  // costs without a budget
    EXPECT_THROW(c.validate(3), std::invalid_argument);
  }
  {
    ConstraintSet c;
    c.cost_budget = -1.0;
    EXPECT_THROW(c.validate(3), std::invalid_argument);
  }
  {
    ConstraintSet c;
    c.groups = {0, 1, 2};
    c.group_caps = {1, 1};  // group 2 has no cap
    EXPECT_THROW(c.validate(3), std::invalid_argument);
  }
  {
    ConstraintSet c;
    c.group_caps = {1};  // caps without groups
    EXPECT_THROW(c.validate(3), std::invalid_argument);
  }
  {
    ConstraintSet c;
    c.blocked = {5};
    EXPECT_THROW(c.validate(3), std::invalid_argument);
  }
  {
    ConstraintSet c;
    c.blocked = {-1};
    EXPECT_THROW(c.validate(3), std::invalid_argument);
  }
}

TEST(ConstraintSetValidate, SortsAndDedupsBlocked) {
  ConstraintSet c;
  c.blocked = {2, 0, 2, 1, 0};
  c.validate(3);
  EXPECT_EQ(c.blocked, (std::vector<NodeId>{0, 1, 2}));
  EXPECT_TRUE(c.has_blocked());
  EXPECT_FALSE(c.empty());
}

TEST(ConstraintSetValidate, DefaultConstructedIsEmptyAndValid) {
  ConstraintSet c;
  EXPECT_TRUE(c.empty());
  EXPECT_NO_THROW(c.validate(10));
  EXPECT_TRUE(c.feasible_subset(std::vector<NodeId>{0, 1, 2}));
  EXPECT_EQ(c.cost_of(std::vector<NodeId>{0, 1, 2}), 0.0);
}

TEST(ConstraintSetFitsCost, SlackAbsorbsFloatSumNoise) {
  ConstraintSet c;
  c.cost_budget = 1.0;
  c.costs = {0.1, 0.2, 0.3, 0.4};
  c.validate(4);
  // 0.1 + 0.2 + 0.3 + 0.4 overshoots 1.0 by float noise only; the shared
  // slack must accept it — and both the tracker and feasible_subset agree.
  EXPECT_TRUE(c.feasible_subset(std::vector<NodeId>{0, 1, 2, 3}));
  ConstraintTracker tracker(c);
  for (const NodeId v : {0, 1, 2, 3}) {
    EXPECT_TRUE(tracker.feasible(v)) << "element " << v;
    tracker.accept(v);
  }
  // A genuinely over-budget element is still rejected.
  ConstraintSet over = c;
  over.costs[3] = 0.41;
  over.validate(4);
  EXPECT_FALSE(over.feasible_subset(std::vector<NodeId>{0, 1, 2, 3}));
}

TEST(ConstraintTracker, AcceptAndSeedCountAlikeAndBlockedStaysBlocked) {
  ConstraintSet c;
  c.cost_budget = 1.0;
  c.costs = {0.6, 0.6, 0.1};
  c.groups = {0, 0, 1};
  c.group_caps = {1, 1};
  c.blocked = {2};
  c.validate(3);

  ConstraintTracker tracker(c);
  EXPECT_FALSE(tracker.feasible(2));  // blocked, despite fitting budgets
  EXPECT_TRUE(tracker.feasible(0));
  tracker.accept(0);
  EXPECT_FALSE(tracker.feasible(1));  // over budget AND group 0 full
  EXPECT_DOUBLE_EQ(tracker.spent_cost(), 0.6);

  // seed() counts committed survivors exactly like accept().
  ConstraintTracker seeded(c);
  const std::vector<NodeId> survivors = {0};
  seeded.seed(survivors);
  EXPECT_DOUBLE_EQ(seeded.spent_cost(), 0.6);
  EXPECT_FALSE(seeded.feasible(1));
}

TEST(ConstraintTracker, FeasibleHandlesIdsBeyondBlockedBitmap) {
  ConstraintSet c;
  c.blocked = {1};
  c.validate(100);
  ConstraintTracker tracker(c);
  // The bitmap is sized to the max blocked id; larger live ids must still
  // be feasible (regression guard for the bitmap bounds check).
  EXPECT_FALSE(tracker.feasible(1));
  EXPECT_TRUE(tracker.feasible(99));
}

TEST(ConstraintSetFingerprint, DistinguishesConfigurations) {
  ConstraintSet a;
  a.cost_budget = 1.0;
  a.costs = {0.5, 0.5};
  a.validate(2);
  ConstraintSet b = a;
  b.cost_budget = 2.0;
  b.validate(2);
  EXPECT_NE(a.fingerprint(), b.fingerprint());
  ConstraintSet c = a;
  EXPECT_EQ(a.fingerprint(), c.fingerprint());
}

/// Runs constrained solve_partition over the full ground set and audits the
/// selection. Returns a failure message or nullopt.
std::optional<std::string> constrained_solve_property(std::uint64_t seed,
                                                      double scale) {
  const std::size_t n = scaled(14, scale, 4);
  const std::size_t k = scaled(5, scale, 2);
  const Instance instance = random_instance(n, 3, seed);
  const auto ground_set = instance.ground_set();
  const auto params = ObjectiveParams::from_alpha(0.9);
  const PairwiseKernel kernel(ground_set, params);
  Rng rng(seed ^ 0xc0ffee);
  const ConstraintSet constraints =
      subsel::testing::random_constraints(n, rng);

  std::vector<NodeId> members(n);
  for (std::size_t i = 0; i < n; ++i) members[i] = static_cast<NodeId>(i);
  SubproblemArena arena;
  const GreedyResult result = solve_partition(kernel, members, k, nullptr, arena,
                                              nullptr, nullptr, &constraints);

  std::vector<NodeId> sorted = result.selected;
  std::sort(sorted.begin(), sorted.end());
  const std::string violation = feasibility_violation(sorted, constraints, k);
  if (!violation.empty()) return violation;

  // Maximality: stopping short of k is only legal when no unselected element
  // is feasible against the FINAL selection (monotone infeasibility makes
  // the final state the weakest test point).
  if (result.selected.size() < k) {
    ConstraintTracker final_state(constraints);
    final_state.seed(sorted);
    for (const NodeId v : members) {
      if (std::binary_search(sorted.begin(), sorted.end(), v)) continue;
      if (final_state.feasible(v)) {
        return "stopped at " + std::to_string(result.selected.size()) +
               " of k=" + std::to_string(k) + " with element " +
               std::to_string(v) + " still feasible";
      }
    }
  }

  // Oracle cross-check: the exhaustive constrained optimum bounds the greedy
  // objective from above, and when any feasible non-empty subset exists the
  // greedy must select something.
  const PairwiseObjective objective(ground_set, params);
  const auto oracle = constrained_brute_force(
      n, k, constraints,
      [&](std::span<const NodeId> subset) { return objective.evaluate(subset); });
  if (oracle.feasible_count > 0 && result.selected.empty()) {
    return "returned empty although " + std::to_string(oracle.feasible_count) +
           " feasible non-empty subsets exist";
  }
  const double got = objective.evaluate(sorted);
  if (got > oracle.objective + 1e-9) {
    return "objective " + std::to_string(got) +
           " exceeds the exhaustive optimum " + std::to_string(oracle.objective);
  }
  return std::nullopt;
}

TEST(ConstrainedGreedyConformance, PriorityQueueSelectionsFeasibleAndMaximal) {
  check_property("constrained priority-queue greedy", 120,
                 constrained_solve_property);
}

TEST(ConstrainedGreedyConformance, NonBindingConstraintsAreBitIdentical) {
  check_property(
      "non-binding constraints bit-identity", 40,
      [](std::uint64_t seed, double scale) -> std::optional<std::string> {
        const std::size_t n = scaled(40, scale, 6);
        const std::size_t k = scaled(8, scale, 2);
        const Instance instance = random_instance(n, 4, seed);
        const auto ground_set = instance.ground_set();
        const auto params = ObjectiveParams::from_alpha(0.85);
        const PairwiseKernel kernel(ground_set, params);

        // Loose everything: budget above the total cost, caps >= k, nothing
        // blocked. The constrained path must reproduce the unconstrained
        // selection AND objective bit-for-bit.
        ConstraintSet loose;
        loose.costs.assign(n, 1.0);
        loose.cost_budget = static_cast<double>(n) + 1.0;
        loose.groups.assign(n, 0);
        loose.group_caps = {n};
        loose.validate(n);

        std::vector<NodeId> members(n);
        for (std::size_t i = 0; i < n; ++i) members[i] = static_cast<NodeId>(i);
        SubproblemArena arena_a, arena_b;
        const GreedyResult unconstrained =
            solve_partition(kernel, members, k, nullptr, arena_a);
        const GreedyResult constrained = solve_partition(
            kernel, members, k, nullptr, arena_b, nullptr, nullptr, &loose);
        if (constrained.selected != unconstrained.selected) {
          return "selections differ under non-binding constraints";
        }
        if (constrained.objective != unconstrained.objective) {
          return "objectives differ under non-binding constraints";
        }
        return std::nullopt;
      });
}

TEST(ConstrainedGreedyConformance, BlockedOnlyConstraintsExcludeExactlyBlocked) {
  const Instance instance = random_instance(30, 4, 4242);
  const auto ground_set = instance.ground_set();
  const auto params = ObjectiveParams::from_alpha(0.9);
  const PairwiseKernel kernel(ground_set, params);

  ConstraintSet constraints;
  constraints.blocked = {0, 7, 13, 21};
  constraints.validate(30);

  std::vector<NodeId> members(30);
  for (std::size_t i = 0; i < 30; ++i) members[i] = static_cast<NodeId>(i);
  SubproblemArena arena;
  const GreedyResult result = solve_partition(kernel, members, 10, nullptr, arena,
                                              nullptr, nullptr, &constraints);
  EXPECT_EQ(result.selected.size(), 10u);  // plenty of unblocked candidates
  for (const NodeId v : result.selected) {
    EXPECT_FALSE(std::binary_search(constraints.blocked.begin(),
                                    constraints.blocked.end(), v))
        << "selected blocked id " << v;
  }
}

}  // namespace
}  // namespace subsel::core
