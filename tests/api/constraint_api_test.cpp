// API-level constrained-selection conformance: EVERY registered solver ×
// EVERY registered objective × every constraint shape either solves — and
// then the selection must pass the brute-force oracle layer's feasibility
// audit and the report must carry a truthful ConstraintSummary — or is
// rejected up-front with the typed incompatibility_reason. Plus the
// request-resolution details the registry owns: uniform group-cap
// expansion, the deduplicated blocked-id count and its report summary, the
// bounding×constraints reject, and the constrained-request JSON echo.
#include "api/solver_registry.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "../testing/constraint_oracle.h"
#include "../testing/property.h"
#include "../testing/test_instances.h"
#include "api/objective_registry.h"

namespace subsel::api {
namespace {

using subsel::testing::check_property;
using subsel::testing::feasibility_violation;
using subsel::testing::Instance;
using subsel::testing::random_instance;
using subsel::testing::scaled;

/// The constraint shapes the matrix sweeps. `apply` fills request.constraints
/// for a ground set of n points.
struct ConstraintShape {
  const char* name;
  void (*apply)(ConstraintOptions&, std::size_t n);
};

const ConstraintShape kShapes[] = {
    {"knapsack",
     [](ConstraintOptions& c, std::size_t n) {
       c.costs.assign(n, 0.0);
       for (std::size_t i = 0; i < n; ++i) {
         c.costs[i] = 0.2 + 0.05 * static_cast<double>(i % 7);
       }
       c.cost_budget = 1.2;
     }},
    {"partition-matroid",
     [](ConstraintOptions& c, std::size_t n) {
       c.groups.resize(n);
       for (std::size_t i = 0; i < n; ++i) {
         c.groups[i] = static_cast<std::uint32_t>(i % 3);
       }
       c.group_caps = {2, 2, 1};
     }},
    {"blocked",
     [](ConstraintOptions& c, std::size_t n) {
       for (std::size_t i = 0; i < n; i += 3) {
         c.blocked.push_back(static_cast<NodeId>(i));
       }
     }},
    {"all-families",
     [](ConstraintOptions& c, std::size_t n) {
       c.costs.assign(n, 0.3);
       c.cost_budget = 1.5;
       c.groups.resize(n);
       for (std::size_t i = 0; i < n; ++i) {
         c.groups[i] = static_cast<std::uint32_t>(i % 4);
       }
       c.group_cap = 2;  // uniform cap expansion path
       c.blocked = {1, 5};
     }},
};

core::ConstraintSet resolved_set(const ConstraintOptions& options, std::size_t n) {
  core::ConstraintSet constraints;
  constraints.costs = options.costs;
  constraints.cost_budget = options.cost_budget;
  constraints.groups = options.groups;
  constraints.group_caps = options.group_caps;
  if (!constraints.groups.empty() && constraints.group_caps.empty() &&
      options.group_cap > 0) {
    const std::uint32_t max_group =
        *std::max_element(constraints.groups.begin(), constraints.groups.end());
    constraints.group_caps.assign(max_group + 1, options.group_cap);
  }
  constraints.blocked = options.blocked;
  constraints.validate(n);
  return constraints;
}

TEST(ConstraintApiConformance, EverySolverObjectiveConstraintCellSolvesOrRejects) {
  const std::size_t n = 24;
  const Instance instance = random_instance(n, 4, 8801);
  const auto ground_set = instance.ground_set();

  for (const SolverInfo& solver : SolverRegistry::instance().list()) {
    for (const ObjectiveInfo& objective : ObjectiveRegistry::instance().list()) {
      for (const ConstraintShape& shape : kShapes) {
        SelectionRequest request;
        request.ground_set = &ground_set;
        request.k = 5;
        request.solver = solver.name;
        request.objective_name = objective.name;
        request.bounding.enabled = false;  // the bounding reject has its own test
        request.seed = 97;
        shape.apply(request.constraints, n);
        const std::string cell =
            solver.name + " x " + objective.name + " x " + shape.name;

        const std::string reason = incompatibility_reason(
            solver.caps, objective.caps, /*bounding_enabled=*/false,
            /*constrained=*/true);
        if (!reason.empty()) {
          EXPECT_THROW(select(request), std::invalid_argument) << cell;
          continue;
        }
        SelectionReport report;
        ASSERT_NO_THROW(report = select(request)) << cell;
        const core::ConstraintSet constraints =
            resolved_set(request.constraints, n);
        EXPECT_EQ(feasibility_violation(report.selected, constraints, 5), "")
            << cell;
        ASSERT_TRUE(report.constraints.has_value()) << cell;
        EXPECT_TRUE(report.constraints->feasible) << cell;
        EXPECT_DOUBLE_EQ(report.constraints->selected_cost,
                         constraints.cost_of(report.selected))
            << cell;
        EXPECT_EQ(report.constraints->num_blocked, constraints.blocked.size())
            << cell;
      }
    }
  }
}

TEST(ConstraintApiConformance, RandomizedConstraintsStayFeasibleAcrossSolvers) {
  // The per-seed sweep runs every constrained-capable solver on a fresh
  // random instance + random constraint set; pairwise objective keeps the
  // matrix affordable at >= 100 seeds (the full objective matrix runs in the
  // deterministic cell sweep above).
  check_property(
      "randomized solver feasibility", 100,
      [](std::uint64_t seed, double scale) -> std::optional<std::string> {
        const std::size_t n = scaled(18, scale, 6);
        const std::size_t k = scaled(5, scale, 2);
        const Instance instance = random_instance(n, 3, seed);
        const auto ground_set = instance.ground_set();
        Rng rng(seed ^ 0xabba);
        const core::ConstraintSet constraints =
            subsel::testing::random_constraints(n, rng);
        // The generator may draw an empty family mix (e.g. zero blocked
        // ids); the registry then rightly stays on the unconstrained path
        // and emits no summary.
        const bool active = constraints.cost_budget > 0.0 ||
                            !constraints.groups.empty() ||
                            !constraints.blocked.empty();

        for (const SolverInfo& solver : SolverRegistry::instance().list()) {
          if (!solver.caps.constrained) continue;
          SelectionRequest request;
          request.ground_set = &ground_set;
          request.k = k;
          request.solver = solver.name;
          request.bounding.enabled = false;
          request.seed = seed;
          request.constraints.costs = constraints.costs;
          request.constraints.cost_budget = constraints.cost_budget;
          request.constraints.groups = constraints.groups;
          request.constraints.group_caps = constraints.group_caps;
          request.constraints.blocked = constraints.blocked;

          const SelectionReport report = select(request);
          const std::string violation =
              feasibility_violation(report.selected, constraints, k);
          if (!violation.empty()) {
            return std::string(solver.name) + ": " + violation;
          }
          if (active && !report.constraints.has_value()) {
            return std::string(solver.name) + ": report lost the constraint summary";
          }
        }
        return std::nullopt;
      });
}

TEST(ConstraintApiConformance, BoundingPlusConstraintsIsATypedReject) {
  const Instance instance = random_instance(20, 3, 31);
  const auto ground_set = instance.ground_set();
  SelectionRequest request;
  request.ground_set = &ground_set;
  request.k = 5;
  request.solver = "pipeline";
  request.bounding.enabled = true;
  request.constraints.blocked = {0};

  try {
    select(request);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("bounding"), std::string::npos)
        << e.what();
  }
  // Same cell with bounding off solves.
  request.bounding.enabled = false;
  EXPECT_NO_THROW(select(request));
}

TEST(ConstraintApiConformance, NonConstrainedCapableSolverIsATypedReject) {
  SolverCapabilities external;  // defaults: constrained == false
  core::ObjectiveKernelCaps objective_caps;
  objective_caps.utility_bounds = true;
  objective_caps.distributed_scoring = true;
  const std::string reason =
      incompatibility_reason(external, objective_caps, false, true);
  EXPECT_NE(reason.find("ConstraintTracker"), std::string::npos) << reason;
  // The 3-arg overload stays the unconstrained special case.
  EXPECT_EQ(incompatibility_reason(external, objective_caps, false), "");
}

TEST(ConstraintApiConformance, UniformGroupCapExpandsToEveryGroup) {
  const std::size_t n = 12;
  const Instance instance = random_instance(n, 3, 57);
  const auto ground_set = instance.ground_set();
  SelectionRequest request;
  request.ground_set = &ground_set;
  request.k = 8;
  request.solver = "lazy-greedy";
  request.bounding.enabled = false;
  request.constraints.groups.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    request.constraints.groups[i] = static_cast<std::uint32_t>(i % 4);
  }
  request.constraints.group_cap = 1;  // uniform: every group capped at 1

  const SelectionReport report = select(request);
  EXPECT_LE(report.selected.size(), 4u);  // 4 groups x cap 1
  std::vector<int> counts(4, 0);
  for (const NodeId v : report.selected) {
    ++counts[request.constraints.groups[static_cast<std::size_t>(v)]];
  }
  for (const int c : counts) EXPECT_LE(c, 1);
  ASSERT_TRUE(report.constraints.has_value());
  EXPECT_EQ(report.constraints->num_groups, 4u);
}

TEST(ConstraintApiConformance, BlockedIdsAreDeduplicatedIntoTheSummary) {
  const Instance instance = random_instance(30, 4, 63);
  const auto ground_set = instance.ground_set();

  SelectionRequest request;
  request.ground_set = &ground_set;
  request.k = 10;
  request.solver = "lazy-greedy";
  request.bounding.enabled = false;
  // Out of order and with a repeat: validate() sorts and dedups.
  request.constraints.blocked = {19, 2, 11, 2};

  const SelectionReport report = select(request);
  for (const NodeId v : report.selected) {
    EXPECT_TRUE(v != 2 && v != 11 && v != 19) << "selected blocked id " << v;
  }
  ASSERT_TRUE(report.constraints.has_value());
  EXPECT_EQ(report.constraints->num_blocked, 3u);

  // The JSON echo carries the summary.
  const std::string json = report.to_json();
  EXPECT_NE(json.find("\"constraints\""), std::string::npos);
  EXPECT_NE(json.find("\"num_blocked\":3"), std::string::npos);
  EXPECT_NE(json.find("\"feasible\":true"), std::string::npos);
}

TEST(ConstraintApiConformance, MalformedConstraintOptionsRejectUpFront) {
  const Instance instance = random_instance(10, 3, 71);
  const auto ground_set = instance.ground_set();
  SelectionRequest request;
  request.ground_set = &ground_set;
  request.k = 3;
  request.solver = "lazy-greedy";
  request.bounding.enabled = false;

  // Costs sized for the wrong ground set.
  request.constraints.costs = {1.0, 2.0};
  request.constraints.cost_budget = 1.0;
  EXPECT_THROW(select(request), std::invalid_argument);
  request.constraints = {};

  // Group id without any cap.
  request.constraints.groups.assign(10, 0);
  EXPECT_THROW(select(request), std::invalid_argument);
  request.constraints = {};

  // Blocked id out of range.
  request.constraints.blocked = {99};
  EXPECT_THROW(select(request), std::invalid_argument);
}

}  // namespace
}  // namespace subsel::api
