// Selection drift gate: recomputes every cell of the committed solver matrix
// (BENCH_solver_matrix.json, 11 solvers) and objective x solver matrix
// (BENCH_objective_matrix.json, 33 cells) the way bench/micro_core's
// --solver-matrix and --objective-matrix build them, and holds each cell to
// the committed file: `supported` and |S| exactly, f(S) within 1e-9
// relative, and a committed cell the registries no longer produce fails.
// The 40 constraint x solver cells of --constraint-matrix are held the same
// way to bench/baselines/BENCH_constraints_quick.json, with f(S) within
// 1e-6 * max(1, |f(S)|) and a feasible selection required.
//
// Every cell is seed-deterministic and backend-bit-identical. f(S) gets a
// tolerance only because its sum is chunked by the pool size, so a host with
// another core count may round the last bits apart. The matrix graph is an
// exact (brute-force) kNN build, so this suite also guards that path.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "api/objective_registry.h"
#include "api/solver_registry.h"
#include "common/rng.h"
#include "data/datasets.h"
#include "serve/json_parse.h"

namespace subsel::api {
namespace {

constexpr std::size_t kPoints = 6000;
constexpr std::size_t kClasses = 32;
constexpr std::uint64_t kSeed = 77;
constexpr double kAlpha = 0.9;
constexpr double kFraction = 0.1;
constexpr double kRelativeTolerance = 1e-9;

struct Cell {
  bool supported = true;
  std::size_t selected_count = 0;
  double objective = 0.0;
  bool feasible = true;
};

/// Largest |f(S) - committed| a cell may show, given the committed f(S).
using Tolerance = double (*)(double committed);

double matrix_tolerance(double committed) {
  return kRelativeTolerance * std::abs(committed);
}
double constraint_tolerance(double committed) {
  return 1e-6 * std::max(1.0, std::abs(committed));
}

serve::JsonValue load_committed(const std::string& name) {
  const std::string path = std::string(SUBSEL_SOURCE_DIR) + "/" + name;
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return serve::JsonValue::parse(text.str());
}

const serve::JsonValue& field(const serve::JsonValue& object, const char* key) {
  const serve::JsonValue* value = object.find(key);
  if (value == nullptr) throw std::runtime_error(std::string("no field ") + key);
  return *value;
}

/// Holds every committed cell in `cells` to its recomputed counterpart.
template <class CellId>
void expect_no_drift(const std::string& file, const serve::JsonValue& cells,
                     CellId cell_id, const char* value_key, Tolerance tolerance,
                     std::map<std::string, Cell> recomputed) {
  ASSERT_TRUE(cells.is_array()) << file;
  ASSERT_FALSE(cells.items().empty()) << file;
  for (const serve::JsonValue& want : cells.items()) {
    const std::string id = cell_id(want);
    SCOPED_TRACE(file + " " + id);
    const auto it = recomputed.find(id);
    if (it == recomputed.end()) {
      ADD_FAILURE() << "cell disappeared";
      continue;
    }
    const Cell got = it->second;
    recomputed.erase(it);
    const serve::JsonValue* supported = want.find("supported");
    const bool want_supported = supported == nullptr || supported->as_bool();
    EXPECT_EQ(got.supported, want_supported) << "supported";
    if (!want_supported || !got.supported) continue;
    EXPECT_TRUE(got.feasible) << "infeasible selection";
    EXPECT_EQ(got.selected_count,
              static_cast<std::size_t>(field(want, "selected_count").as_number()))
        << "|S|";
    const double want_value = field(want, value_key).as_number();
    EXPECT_LE(std::abs(got.objective - want_value), tolerance(want_value))
        << "f(S) " << got.objective << " vs committed " << want_value;
  }
  for (const auto& [id, cell] : recomputed) {
    std::printf("%s: new cell %s (not gated)\n", file.c_str(), id.c_str());
  }
}

class SelectionDriftTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    // Build the graph instead of loading a cached copy, so the kNN build is
    // part of what the committed cells hold.
    const char* cache = std::getenv("SUBSEL_CACHE_DIR");
    const std::string previous = cache != nullptr ? cache : "";
    setenv("SUBSEL_CACHE_DIR", "", 1);
    dataset_ = std::make_unique<data::Dataset>(
        data::toy_dataset(kPoints, kClasses, kSeed));
    if (cache != nullptr) {
      setenv("SUBSEL_CACHE_DIR", previous.c_str(), 1);
    } else {
      unsetenv("SUBSEL_CACHE_DIR");
    }
  }
  static void TearDownTestSuite() { dataset_.reset(); }

  static SelectionRequest matrix_request(const graph::GroundSet& ground_set) {
    SelectionRequest request;
    request.ground_set = &ground_set;
    request.k = static_cast<std::size_t>(kFraction * static_cast<double>(kPoints));
    request.objective = core::ObjectiveParams::from_alpha(kAlpha);
    request.seed = kSeed;
    return request;
  }

  static std::unique_ptr<data::Dataset> dataset_;
};

std::unique_ptr<data::Dataset> SelectionDriftTest::dataset_;

TEST_F(SelectionDriftTest, SolverMatrixMatchesCommittedCells) {
  const auto ground_set = dataset_->ground_set();
  SelectionRequest request = matrix_request(ground_set);
  SolverContext context;
  std::map<std::string, Cell> recomputed;
  for (const SolverInfo& solver : SolverRegistry::instance().list()) {
    request.solver = solver.name;
    const SelectionReport report = select(request, context);
    recomputed[solver.name] = Cell{true, report.selected.size(), report.objective};
  }
  const serve::JsonValue committed = load_committed("BENCH_solver_matrix.json");
  expect_no_drift(
      "BENCH_solver_matrix.json", field(committed, "solvers"),
      [](const serve::JsonValue& cell) { return field(cell, "solver").as_string(); },
      "objective", matrix_tolerance, std::move(recomputed));
}

TEST_F(SelectionDriftTest, ObjectiveMatrixMatchesCommittedCells) {
  const auto ground_set = dataset_->ground_set();
  SolverContext context;
  std::map<std::string, Cell> recomputed;
  for (const ObjectiveInfo& objective : ObjectiveRegistry::instance().list()) {
    for (const SolverInfo& solver : SolverRegistry::instance().list()) {
      SelectionRequest request = matrix_request(ground_set);
      request.objective_name = objective.name;
      request.solver = solver.name;
      // The bounding stage is pairwise-only; as in the bench, solvers that
      // have one run without it where the objective has no utility bounds.
      if (solver.caps.bounding_stage && !objective.caps.utility_bounds) {
        request.bounding.enabled = false;
      }
      Cell& cell = recomputed[objective.name + " x " + solver.name];
      if (!incompatibility_reason(solver.caps, objective.caps,
                                  request.bounding.enabled)
               .empty()) {
        cell.supported = false;
        continue;
      }
      const SelectionReport report = select(request, context);
      cell.selected_count = report.selected.size();
      cell.objective = report.objective;
    }
  }
  const serve::JsonValue committed = load_committed("BENCH_objective_matrix.json");
  expect_no_drift(
      "BENCH_objective_matrix.json", field(committed, "cells"),
      [](const serve::JsonValue& cell) {
        return field(cell, "objective").as_string() + " x " +
               field(cell, "solver").as_string();
      },
      "objective_value", matrix_tolerance, std::move(recomputed));
}

TEST_F(SelectionDriftTest, ConstraintMatrixMatchesCommittedQuickBaseline) {
  // The sidecars, budget and cap of micro_core's run_constraint_matrix.
  const auto ground_set = dataset_->ground_set();
  const std::size_t k = static_cast<std::size_t>(kFraction * static_cast<double>(kPoints));
  Rng rng(kSeed ^ 0xc057);
  std::vector<double> costs(kPoints);
  double mean_cost = 0.0;
  for (double& c : costs) {
    c = rng.uniform(0.05, 1.0);
    mean_cost += c;
  }
  mean_cost /= static_cast<double>(kPoints);
  constexpr std::size_t kNumGroups = 8;
  std::vector<std::uint32_t> groups(kPoints);
  for (auto& g : groups) g = static_cast<std::uint32_t>(rng.uniform_index(kNumGroups));
  std::vector<NodeId> blocked;
  for (std::size_t i = 0; i < kPoints; i += 5) blocked.push_back(static_cast<NodeId>(i));
  const double budget = 0.4 * mean_cost * static_cast<double>(k);
  const std::size_t cap = std::max<std::size_t>(1, k / (2 * kNumGroups));

  struct Shape {
    const char* name;
    bool knapsack, matroid, blocks;
  };
  const Shape shapes[] = {
      {"knapsack", true, false, false},
      {"partition-matroid", false, true, false},
      {"blocked", false, false, true},
      {"all-families", true, true, true},
  };
  SolverContext context;
  std::map<std::string, Cell> recomputed;
  for (const SolverInfo& solver : SolverRegistry::instance().list()) {
    if (!solver.caps.constrained) continue;
    for (const Shape& shape : shapes) {
      SelectionRequest request;
      request.ground_set = &ground_set;
      request.k = k;
      request.seed = kSeed;
      request.solver = solver.name;
      request.bounding.enabled = false;
      if (shape.knapsack) {
        request.constraints.costs = costs;
        request.constraints.cost_budget = budget;
      }
      if (shape.matroid) {
        request.constraints.groups = groups;
        request.constraints.group_cap = cap;
      }
      if (shape.blocks) request.constraints.blocked = blocked;
      const SelectionReport report = select(request, context);
      recomputed[solver.name + " x " + shape.name] =
          Cell{true, report.selected.size(), report.objective,
               report.constraints.has_value() && report.constraints->feasible};
    }
  }
  const serve::JsonValue committed =
      load_committed("bench/baselines/BENCH_constraints_quick.json");
  expect_no_drift(
      "BENCH_constraints_quick.json", field(committed, "cells"),
      [](const serve::JsonValue& cell) {
        return field(cell, "solver").as_string() + " x " +
               field(cell, "constraints").as_string();
      },
      "objective_value", constraint_tolerance, std::move(recomputed));
}

}  // namespace
}  // namespace subsel::api
