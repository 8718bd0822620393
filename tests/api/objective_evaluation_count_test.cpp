// Every request evaluates f(S) exactly once: each solver adapter fills
// SelectionReport.objective from the solver's own exact evaluation (or, for
// the gain-accounting greedy baselines, from one evaluation of its own), and
// the registry never rescores. Checked by registering a test-only objective
// that delegates to PairwiseKernel and counts evaluate() calls.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "../testing/test_instances.h"
#include "api/objective_registry.h"
#include "api/solver_registry.h"

namespace subsel::api {
namespace {

using subsel::testing::Instance;
using subsel::testing::random_instance;

std::atomic<int> g_evaluate_calls{0};

/// PairwiseKernel in every respect (same caps, same fast paths, same
/// arithmetic) except that evaluate() calls are counted.
class CountingPairwiseKernel final : public core::ObjectiveKernel {
 public:
  CountingPairwiseKernel(const graph::GroundSet& ground_set,
                         core::ObjectiveParams params)
      : inner_(ground_set, params) {}

  std::string_view name() const noexcept override { return "counting-pairwise"; }
  core::ObjectiveKernelCaps caps() const noexcept override { return inner_.caps(); }
  const graph::GroundSet& ground_set() const noexcept override {
    return inner_.ground_set();
  }
  double evaluate(const std::vector<std::uint8_t>& membership,
                  ThreadPool* pool = nullptr) const override {
    g_evaluate_calls.fetch_add(1);
    return inner_.evaluate(membership, pool);
  }
  using core::ObjectiveKernel::evaluate;
  double marginal_gain(const std::vector<std::uint8_t>& membership,
                       core::NodeId v) const override {
    return inner_.marginal_gain(membership, v);
  }
  double singleton_value(core::NodeId v) const override {
    return inner_.singleton_value(v);
  }
  double gain_offset(ThreadPool* pool = nullptr) const override {
    return inner_.gain_offset(pool);
  }
  const core::ObjectiveParams* pairwise_params() const noexcept override {
    return inner_.pairwise_params();
  }
  std::uint64_t config_fingerprint() const noexcept override {
    return inner_.config_fingerprint();
  }
  std::unique_ptr<core::KernelIncrementalState> make_incremental_state(
      core::SubproblemArena& arena) const override {
    return inner_.make_incremental_state(arena);
  }

 private:
  core::PairwiseKernel inner_;
};

/// Registers the counting objective for the guard's lifetime only: the
/// process-wide registry is restored on destruction, so suites that iterate
/// ObjectiveRegistry::list() never see the test-only entry, whatever order
/// the tests run in.
class ScopedCountingObjective {
 public:
  ScopedCountingObjective() : saved_(ObjectiveRegistry::instance()) {
    ObjectiveRegistry::instance().register_objective(
        {"counting-pairwise", "PairwiseKernel that counts evaluate() calls",
         "f(S) = pairwise", ObjectiveRegistry::instance().info("pairwise")->caps},
        [](const SelectionRequest& request) {
          return std::make_unique<CountingPairwiseKernel>(*request.ground_set,
                                                          request.objective);
        });
  }
  ~ScopedCountingObjective() { ObjectiveRegistry::instance() = saved_; }
  ScopedCountingObjective(const ScopedCountingObjective&) = delete;
  ScopedCountingObjective& operator=(const ScopedCountingObjective&) = delete;

 private:
  ObjectiveRegistry saved_;
};

TEST(ObjectiveEvaluationCount, EverySolverEvaluatesTheObjectiveOnce) {
  const Instance instance = random_instance(200, 6, 7301);
  const auto ground_set = instance.ground_set();
  {
    const ScopedCountingObjective counting;
    for (const SolverInfo& solver : SolverRegistry::instance().list()) {
      SelectionRequest request;
      request.ground_set = &ground_set;
      request.k = 20;
      request.solver = solver.name;
      request.objective_name = "counting-pairwise";
      request.seed = 5;
      request.distributed.num_machines = 4;
      request.distributed.num_rounds = 2;
      request.dataflow.num_shards = 8;
      // Without bounding the pipeline and dataflow solvers always reach their
      // round loops, which score through the kernel (a dataflow run that
      // bounding decides outright scores through the Section 5 joins instead).
      request.bounding.enabled = false;

      g_evaluate_calls.store(0);
      const SelectionReport report = select(request);
      EXPECT_EQ(g_evaluate_calls.load(), 1) << solver.name;
      EXPECT_FALSE(report.selected.empty()) << solver.name;

      // The reported objective is still the exact f(S) of the returned set.
      const core::PairwiseKernel reference(ground_set, request.objective);
      const double fresh =
          reference.evaluate(std::span<const NodeId>(report.selected));
      EXPECT_NEAR(report.objective, fresh, 1e-9 * (1.0 + std::abs(fresh)))
          << solver.name;
    }
  }
  EXPECT_FALSE(ObjectiveRegistry::instance().contains("counting-pairwise"));
}

}  // namespace
}  // namespace subsel::api
