// String-keyed registry of every selection solver in the repo.
//
// An entry is a name, human-facing metadata (description, guarantee,
// capability flags — what `subsel solvers` prints), and an adapter closure
// that maps (SelectionRequest, SolverContext) onto one of the library's
// engines and normalizes its result into a SelectionReport. The built-in
// solvers are registered on first access of instance(); downstream code can
// register additional ones (the conformance suite in tests/api runs against
// whatever is registered, so extensions inherit the test coverage).
#pragma once

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "api/objective_registry.h"
#include "api/selection_api.h"
#include "core/objective_kernel.h"

namespace subsel::api {

struct SolverCapabilities {
  /// Needs the whole similarity graph reachable (random access); streaming
  /// solvers that only do one pass clear this.
  bool needs_full_graph = true;
  /// Processes the ground set as a one-pass stream with sublinear memory.
  bool streaming = false;
  /// Partition-parallel: work splits across "machines" (pool workers).
  bool distributed = false;
  /// Honors SolverContext::cancel() at round boundaries.
  bool cancellable = false;
  /// Supports round checkpoint/resume via DistributedOptions::checkpoint_file.
  bool checkpointable = false;

  // What the solver demands of the objective. Checked against the objective's
  // ObjectiveKernelCaps when a request is validated, so an unsupported
  // solver×objective combination fails with a clear error before anything
  // runs.
  /// Runs the bounding pre-pass when request.bounding.enabled — requires an
  /// objective with utility-bound support (caps().utility_bounds).
  bool bounding_stage = false;
  /// Scores f(S) with the Section 5 distributed joins — requires an
  /// edge-decomposable objective (caps().distributed_scoring).
  bool needs_distributed_scoring = false;

  /// Honors a core::ConstraintSet (knapsack / partition matroid / blocked
  /// ids): the solver's acceptance loop consults a ConstraintTracker and the
  /// returned selection is feasible. Defaults to false so solvers registered
  /// by downstream code are rejected up-front on constrained requests instead
  /// of silently ignoring the budgets.
  bool constrained = false;
};

/// Why `solver` cannot run `objective` under `request` — empty string when
/// the combination is valid. `constrained` = the request carries a non-empty
/// ConstraintSet. The single source of truth for request validation,
/// `subsel objectives`' support matrix, and the bench objective matrix.
std::string incompatibility_reason(const SolverCapabilities& solver,
                                   const core::ObjectiveKernelCaps& objective,
                                   bool bounding_enabled, bool constrained = false);

struct SolverInfo {
  std::string name;
  std::string description;
  /// Approximation guarantee, for the solver table ("1-1/e", "1/2-eps", ...).
  std::string guarantee;
  /// Memory regime of the most loaded machine ("O(n)", "O(m*k) merge", ...).
  std::string memory_regime;
  SolverCapabilities caps;
};

class SolverRegistry {
 public:
  /// The adapter closure: maps (request, context, kernel, constraints) onto
  /// one of the library's engines. The kernel is the already-built,
  /// already-validated objective instance for request.objective_name over
  /// request.ground_set; the constraints are the already-validated resolved
  /// ConstraintSet of the request (nullptr on unconstrained runs — the
  /// common case — so adapters forward it verbatim).
  ///
  /// The adapter must set report.objective to the exact f(S) of the
  /// selection it returns, evaluated once (on context.pool()) or taken from
  /// a solver that already evaluated it exactly; run() does not rescore, so
  /// an adapter that leaves it unset reports 0. report.solver_objective is
  /// whatever the solver itself accounted.
  using SolverFn = std::function<SelectionReport(
      const SelectionRequest&, SolverContext&, const core::ObjectiveKernel&,
      const core::ConstraintSet*)>;

  /// The process-wide registry, with all built-in solvers registered.
  static SolverRegistry& instance();

  /// Registers (or replaces) a solver. Not thread-safe against concurrent
  /// run()/list(); register at startup.
  void register_solver(SolverInfo info, SolverFn fn);

  bool contains(const std::string& name) const;
  /// Metadata for `name`, or nullptr when unknown.
  const SolverInfo* info(const std::string& name) const;
  /// All registered solvers, sorted by name.
  std::vector<SolverInfo> list() const;

  /// Dispatches `request.solver`, fills the report's common fields (total
  /// wall time, config echo; the objective comes from the adapter, see
  /// SolverFn), and returns it. Throws std::invalid_argument on an
  /// unknown solver or objective name (the message lists the known ones), an
  /// invalid request, or an unsupported solver×objective combination.
  SelectionReport run(const SelectionRequest& request, SolverContext& context) const;

 private:
  struct Entry {
    SolverInfo info;
    SolverFn fn;
  };
  std::map<std::string, Entry> entries_;
};

/// Convenience: run `request` on the global registry with a fresh context.
SelectionReport select(const SelectionRequest& request);
/// Convenience: run `request` on the global registry with `context`.
SelectionReport select(const SelectionRequest& request, SolverContext& context);

}  // namespace subsel::api
