// Registry metadata and the cross-solver conformance suite: every registered
// solver, run through the one SelectionRequest/SelectionReport schema on the
// shared small instances, must return ascending unique ids within budget and
// report exactly the objective a fresh PairwiseObjective assigns to them.
#include "api/solver_registry.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "../testing/test_instances.h"

namespace subsel::api {
namespace {

using subsel::testing::Instance;
using subsel::testing::random_instance;

std::vector<std::string> registered_names() {
  std::vector<std::string> names;
  for (const auto& info : SolverRegistry::instance().list()) {
    names.push_back(info.name);
  }
  return names;
}

TEST(SolverRegistry, RegistersTheFullSolverFamily) {
  const auto infos = SolverRegistry::instance().list();
  EXPECT_GE(infos.size(), 8u);
  for (const auto& info : infos) {
    EXPECT_FALSE(info.name.empty());
    EXPECT_FALSE(info.description.empty()) << info.name;
    EXPECT_FALSE(info.guarantee.empty()) << info.name;
    EXPECT_FALSE(info.memory_regime.empty()) << info.name;
    EXPECT_TRUE(SolverRegistry::instance().contains(info.name));
    EXPECT_NE(SolverRegistry::instance().info(info.name), nullptr);
  }
  // The names the CLI/docs/benches rely on.
  for (const char* name :
       {"pipeline", "distributed-greedy", "dataflow", "greedi", "randgreedi",
        "lazy-greedy", "stochastic-greedy", "threshold-greedy",
        "sieve-streaming", "sample-and-prune", "random"}) {
    EXPECT_TRUE(SolverRegistry::instance().contains(name)) << name;
  }
}

TEST(SolverRegistry, UnknownSolverThrowsWithKnownNames) {
  const Instance instance = random_instance(50, 4, 7001);
  const auto ground_set = instance.ground_set();
  SelectionRequest request;
  request.ground_set = &ground_set;
  request.k = 5;
  request.solver = "does-not-exist";
  try {
    select(request);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    // The error lists the registered solvers so CLI users can self-serve.
    EXPECT_NE(std::string(e.what()).find("pipeline"), std::string::npos);
  }
}

TEST(SolverRegistry, RejectsInvalidBudgets) {
  const Instance instance = random_instance(50, 4, 7002);
  const auto ground_set = instance.ground_set();
  SelectionRequest request;
  request.ground_set = &ground_set;
  EXPECT_THROW(select(request), std::invalid_argument);  // no k, no fraction
  request.fraction = 1.5;
  EXPECT_THROW(select(request), std::invalid_argument);
  request.fraction = 0.0;
  request.k = 51;
  EXPECT_THROW(select(request), std::invalid_argument);  // k > |V|
  request.ground_set = nullptr;
  request.k = 5;
  EXPECT_THROW(select(request), std::invalid_argument);
}

TEST(SolverRegistry, RejectsEpsilonOutsideOpenUnitInterval) {
  // ε = 0 would hang threshold greedy and divide by log1p(0) in the sieve;
  // ε <= 0 or >= 1 turns the stochastic sample size into inf. Every value
  // outside (0, 1), NaN included, is refused before any solver runs.
  const Instance instance = random_instance(50, 4, 7003);
  const auto ground_set = instance.ground_set();
  for (const std::string solver :
       {"stochastic-greedy", "threshold-greedy", "sieve-streaming"}) {
    for (const double epsilon :
         {0.0, 1.0, -0.5, std::numeric_limits<double>::quiet_NaN()}) {
      SelectionRequest request;
      request.ground_set = &ground_set;
      request.k = 5;
      request.solver = solver;
      request.streaming.epsilon = epsilon;
      EXPECT_THROW(select(request), std::invalid_argument)
          << solver << " epsilon=" << epsilon;
    }
  }
}

/// Conformance suite: parameterized over every registered solver name.
class SolverConformance : public ::testing::TestWithParam<std::string> {};

TEST_P(SolverConformance, ReturnsValidAscendingSubsetWithExactObjective) {
  const std::string solver = GetParam();
  // Two shapes: a denser 120-point instance and a sparser 300-point one.
  const std::vector<Instance> instances = {random_instance(120, 8, 6101),
                                           random_instance(300, 4, 6102)};
  for (std::size_t i = 0; i < instances.size(); ++i) {
    const auto ground_set = instances[i].ground_set();
    const std::size_t k = ground_set.num_points() / 10;

    SelectionRequest request;
    request.ground_set = &ground_set;
    request.k = k;
    request.objective = core::ObjectiveParams::from_alpha(0.9);
    request.seed = 97 + i;
    request.solver = solver;
    request.distributed.num_machines = 4;
    request.distributed.num_rounds = 3;
    request.dataflow.num_shards = 8;

    SolverContext context;
    const SelectionReport report = select(request, context);

    EXPECT_EQ(report.solver, solver);
    EXPECT_EQ(report.k_requested, k);
    EXPECT_EQ(report.num_points, ground_set.num_points());
    EXPECT_FALSE(report.preempted);
    EXPECT_GT(report.total_seconds, 0.0);
    ASSERT_FALSE(report.timings.empty());

    // Ascending unique ids, within budget and range.
    EXPECT_LE(report.selected.size(), k) << "instance " << i;
    EXPECT_TRUE(std::is_sorted(report.selected.begin(), report.selected.end()));
    EXPECT_EQ(std::adjacent_find(report.selected.begin(), report.selected.end()),
              report.selected.end());
    for (const NodeId id : report.selected) {
      EXPECT_GE(id, 0);
      EXPECT_LT(static_cast<std::size_t>(id), ground_set.num_points());
    }
    // Every solver except the streaming sieve fills the budget on these
    // instances; the sieve may legitimately return fewer.
    if (solver != "sieve-streaming") {
      EXPECT_EQ(report.selected.size(), k) << "instance " << i;
    }

    // The report's objective must equal a fresh exact evaluation of the
    // returned subset — never a solver's gain accounting.
    core::PairwiseObjective objective(ground_set, request.objective);
    const double fresh = objective.evaluate(report.selected);
    EXPECT_NEAR(report.objective, fresh, 1e-9 * (1.0 + std::abs(fresh)))
        << solver << " instance " << i;
  }
}

TEST_P(SolverConformance, IsDeterministicGivenTheSeed) {
  const std::string solver = GetParam();
  const Instance instance = random_instance(150, 6, 6103);
  const auto ground_set = instance.ground_set();

  SelectionRequest request;
  request.ground_set = &ground_set;
  request.k = 15;
  request.seed = 1234;
  request.solver = solver;
  request.distributed.num_machines = 4;
  request.distributed.num_rounds = 2;
  request.dataflow.num_shards = 8;

  const SelectionReport first = select(request);
  const SelectionReport second = select(request);
  EXPECT_EQ(first.selected, second.selected) << solver;
  EXPECT_DOUBLE_EQ(first.objective, second.objective) << solver;
}

/// GTest parameter names must be alphanumeric; solver names use dashes.
std::string sanitize(const ::testing::TestParamInfo<std::string>& info) {
  std::string name = info.param;
  std::replace(name.begin(), name.end(), '-', '_');
  return name;
}

INSTANTIATE_TEST_SUITE_P(AllRegisteredSolvers, SolverConformance,
                         ::testing::ValuesIn(registered_names()), sanitize);

TEST(SolverContextApi, CancellationFromProgressPreemptsTheRun) {
  const Instance instance = random_instance(400, 6, 6104);
  const auto ground_set = instance.ground_set();

  SelectionRequest request;
  request.ground_set = &ground_set;
  request.k = 40;
  request.solver = "distributed-greedy";
  request.distributed.num_machines = 4;
  request.distributed.num_rounds = 6;

  SolverContext context;
  std::size_t rounds_seen = 0;
  context.set_progress([&](const ProgressEvent& event) {
    ++rounds_seen;
    if (event.step >= 2) context.cancel().request_stop();
  });
  const SelectionReport report = select(request, context);
  EXPECT_TRUE(report.preempted);
  EXPECT_TRUE(report.selected.empty());
  EXPECT_EQ(report.rounds.size(), 2u);
  EXPECT_EQ(rounds_seen, 2u);

  // A fresh context re-arms; the same request then completes.
  SolverContext clean;
  const SelectionReport full = select(request, clean);
  EXPECT_FALSE(full.preempted);
  EXPECT_EQ(full.selected.size(), 40u);
}

TEST(SolverContextApi, SharedArenasSurviveAcrossRuns) {
  const Instance instance = random_instance(200, 5, 6105);
  const auto ground_set = instance.ground_set();

  SelectionRequest request;
  request.ground_set = &ground_set;
  request.k = 20;
  request.solver = "distributed-greedy";
  request.distributed.num_machines = 2;
  request.distributed.num_rounds = 2;

  // One context, many runs: results must match fresh-context runs exactly
  // (arena reuse is invisible to selection output).
  SolverContext shared;
  const SelectionReport first = select(request, shared);
  const SelectionReport again = select(request, shared);
  const SelectionReport fresh = select(request);
  EXPECT_EQ(first.selected, again.selected);
  EXPECT_EQ(first.selected, fresh.selected);
}

}  // namespace
}  // namespace subsel::api
