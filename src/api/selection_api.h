// One request/response schema for every selection engine in the repo.
//
// The library grew ~10 divergent entry points (core::select_subset,
// core::distributed_greedy, beam::beam_select_subset, the baselines::
// family); each caller — CLI, examples, benches — re-implemented dispatch,
// timing, and reporting. This façade collapses them behind three types:
//
//   SelectionRequest : what to select — ground set, budget (k or fraction),
//                      objective, seed, solver name, per-solver options.
//   SelectionReport  : what happened — the ids, the *exact* objective (the
//                      request's kernel over the full ground set, evaluated
//                      once; never the solver's internal accounting),
//                      per-stage timings, round/memory statistics, a config
//                      echo, and JSON serialization.
//   SolverContext    : shared execution state — the thread pool, the
//                      reusable SubproblemArenaPool, a progress callback,
//                      and a cooperative cancellation token threaded into
//                      the round loops.
//
// Solvers are looked up by string in the SolverRegistry (solver_registry.h);
// `subsel solvers` lists them. The original free functions remain the
// implementations — the registry entries are thin adapters over them.
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/run_control.h"
#include "common/thread_pool.h"
#include "core/bounding.h"
#include "core/constraints.h"
#include "core/distributed_greedy.h"
#include "core/objective.h"
#include "core/subproblem_arena.h"
#include "graph/ground_set.h"

namespace subsel::api {

using core::NodeId;

/// Options for the multi-round distributed greedy and for the partition-based
/// baselines (GreeDi reads num_machines; stochastic greedy reads
/// stochastic_epsilon).
struct DistributedOptions {
  std::size_t num_machines = 8;
  std::size_t num_rounds = 8;
  bool adaptive_partitioning = true;
  core::PartitionSolver partition_solver = core::PartitionSolver::kPriorityQueue;
  double stochastic_epsilon = 0.1;
  /// Round checkpoint/resume file (empty disables); see distributed_greedy.h.
  /// Checkpoints are crash-consistent: written to a temp file, fsynced, then
  /// atomically renamed, so a kill mid-write leaves the previous one intact.
  std::string checkpoint_file;
  /// Save the checkpoint only every Nth round (1 = every round). Resume picks
  /// up from the last *saved* round; rounds after it are re-run.
  std::size_t checkpoint_every = 1;
  /// Checkpoint to resume from. An alias for `checkpoint_file` for callers
  /// that only restart: when `checkpoint_file` is empty this path is used for
  /// both resume and subsequent saves; setting both to different paths is
  /// rejected (the round loop reads and writes one file).
  std::string resume_from;
  /// Graceful preemption after this many rounds of this invocation (0 = off).
  std::size_t stop_after_round = 0;
  /// Out-of-core pipelining: partitions of each round's plan handed to
  /// GroundSet::prefetch ahead of the solve loop (0 disables; no-op for
  /// resident ground sets). Never affects selections.
  std::size_t prefetch_depth = 2;
};

/// Bounding pre-pass options (solvers "pipeline" and "dataflow").
struct BoundingOptions {
  bool enabled = true;
  core::BoundingSampling sampling = core::BoundingSampling::kUniform;
  double sample_fraction = 0.3;
  /// Leading worker chunks of each bounding pass handed to
  /// GroundSet::prefetch (0 disables; no-op for resident ground sets).
  std::size_t prefetch_depth = 2;
};

/// Dataflow substrate options (solver "dataflow").
struct DataflowOptions {
  std::size_t num_shards = 64;
  /// Per-worker memory budget in bytes; 0 disables enforcement.
  std::size_t worker_memory_bytes = 0;
};

/// Options for the streaming/threshold baselines.
struct StreamingOptions {
  double epsilon = 0.1;
  /// Apply the Appendix-A monotonicity offset (sieve-streaming only).
  bool monotonicity_offset = false;
};

/// Options for the SAMPLE&PRUNE baseline.
struct SamplePruneOptions {
  std::size_t machine_capacity = 0;  // 0 -> 4·k
  std::size_t max_rounds = 64;
};

/// Selection constraints beyond the cardinality budget k. All families
/// compose; an all-default block means "unconstrained" and keeps every
/// solver on its bit-identical pre-constraint path. The registry validates
/// the resolved core::ConstraintSet against the ground set before dispatch
/// and rejects solvers whose capabilities do not include constrained
/// selection with a typed incompatibility_reason.
struct ConstraintOptions {
  /// Knapsack: one cost per ground-set element plus a positive budget.
  std::vector<double> costs;
  double cost_budget = 0.0;
  /// Partition matroid: one group id per element, capped per group either
  /// explicitly (`group_caps[g]`) or uniformly (`group_cap` for every group
  /// when `group_caps` is empty).
  std::vector<std::uint32_t> groups;
  std::vector<std::size_t> group_caps;
  std::size_t group_cap = 0;
  /// Ids that may never be selected. OverlayGroundSet deletions are folded
  /// in automatically by the registry; listing them here too is harmless.
  std::vector<NodeId> blocked;

  bool any() const noexcept {
    return cost_budget > 0.0 || !groups.empty() || !blocked.empty();
  }
};

/// Options for the "facility-location" objective (max-based coverage).
struct FacilityLocationOptions {
  double self_similarity = 1.0;
  bool utility_weighted = true;
};

/// Options for the "saturated-coverage" objective (truncated sum coverage).
struct CoverageOptions {
  double saturation = 1.0;
  double self_similarity = 1.0;
  bool utility_weighted = true;
};

struct SelectionRequest {
  /// Non-owning; must outlive the run. Any GroundSet implementation works
  /// (in-memory, disk-backed, virtual).
  const graph::GroundSet* ground_set = nullptr;
  /// Subset budget: an absolute k, or (when k == 0) a fraction of the ground
  /// set in (0, 1].
  std::size_t k = 0;
  double fraction = 0.0;
  /// ObjectiveRegistry key; `subsel objectives` enumerates. Each objective
  /// reads only its own option block below; solver×objective compatibility is
  /// validated before anything runs (see SolverCapabilities).
  std::string objective_name = "pairwise";
  /// Options for the "pairwise" objective — validated (alpha > 0, beta >= 0)
  /// when the kernel is built.
  core::ObjectiveParams objective;
  FacilityLocationOptions facility_location;
  CoverageOptions coverage;
  std::uint64_t seed = 23;
  /// Wall-clock budget in milliseconds (0 = unlimited), measured from solver
  /// dispatch. Solvers that support graceful degradation return their best
  /// valid selection so far with `SelectionReport.degraded` set instead of
  /// running past the budget; the checkpoint (if any) is kept so a later run
  /// can resume to full quality. Overrides any context-level deadline.
  std::uint64_t deadline_ms = 0;
  /// Registry key; `SolverRegistry::list()` / `subsel solvers` enumerate.
  std::string solver = "pipeline";
  /// Per-solver options; each solver reads only the blocks relevant to it.
  DistributedOptions distributed;
  BoundingOptions bounding;
  DataflowOptions dataflow;
  StreamingOptions streaming;
  SamplePruneOptions sample_prune;
  /// Selection constraints (knapsack / partition matroid / blocked ids).
  ConstraintOptions constraints;

  /// The absolute budget this request resolves to; throws on an unset or
  /// out-of-range budget or a missing ground set.
  std::size_t resolved_k() const {
    if (ground_set == nullptr) {
      throw std::invalid_argument("SelectionRequest: ground_set is null");
    }
    const std::size_t n = ground_set->num_points();
    if (k > 0) {
      if (k > n) throw std::invalid_argument("SelectionRequest: k exceeds |V|");
      return k;
    }
    // Negated comparison so NaN also fails validation instead of falling
    // through to an undefined float->size_t cast.
    if (!(fraction > 0.0 && fraction <= 1.0)) {
      throw std::invalid_argument(
          "SelectionRequest: need k >= 1 or fraction in (0, 1]");
    }
    return static_cast<std::size_t>(fraction * static_cast<double>(n));
  }
};

struct StageTiming {
  std::string stage;
  double seconds = 0.0;
};

/// Compact bounding echo (the full BoundingResult carries the per-point
/// SelectionState, which has no business in a report).
struct BoundingSummary {
  std::size_t included = 0;
  std::size_t excluded = 0;
  std::size_t grow_rounds = 0;
  std::size_t shrink_rounds = 0;
};

/// Echo of an active constraint configuration plus how the returned
/// selection sits against it (absent for unconstrained runs).
struct ConstraintSummary {
  double cost_budget = 0.0;
  /// Total cost of `selected` under the request's costs (0 when the
  /// knapsack family is inactive).
  double selected_cost = 0.0;
  std::size_t num_groups = 0;   // distinct capped groups
  std::size_t num_blocked = 0;  // blocked ids (overlay deletions included)
  /// Post-hoc feasibility of the returned selection — always true by
  /// construction; recorded so reports are self-auditing.
  bool feasible = true;
};

/// Out-of-core cache behavior of the run, filled when the request's ground
/// set is a graph::DiskGroundSet (counter deltas over this run; the
/// high-water mark and budget are absolute).
struct DiskCacheSummary {
  std::size_t num_shards = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t prefetch_issued = 0;
  std::uint64_t prefetch_loaded = 0;
  /// Transient read faults absorbed by the retry/backoff loop over this run.
  std::uint64_t read_retries = 0;
  /// Prefetch blocks abandoned after an I/O fault (degraded into demand
  /// misses; never affects results).
  std::uint64_t prefetch_degraded = 0;
  /// Peak blocks resident at once (absolute, never exceeds the budget).
  std::size_t resident_blocks_high_water = 0;
  std::size_t max_cached_blocks = 0;
  /// DRAM the disk-backed set keeps resident (scalars + cache at capacity).
  std::size_t resident_bytes = 0;
};

struct SelectionReport {
  std::string solver;
  /// Which registered objective the run maximized.
  std::string objective_name = "pairwise";
  /// Which vectorized gain-kernel backend the run's solves dispatched to
  /// ("scalar", "avx2", "neon" — the widest one the CPU supports unless
  /// SUBSEL_FORCE_SCALAR pinned it down). Diagnostics only: every backend
  /// produces bit-identical selections and objectives.
  std::string kernel_backend = "scalar";
  std::size_t num_points = 0;
  std::size_t k_requested = 0;
  core::ObjectiveParams objective_params;
  std::uint64_t seed = 0;

  /// Ascending unique ids; |selected| <= k (streaming baselines may return
  /// fewer), empty when preempted.
  std::vector<NodeId> selected;
  /// Exact f(selected) on the full ground set under the request's objective,
  /// computed once per request — comparable across every solver.
  double objective = 0.0;
  /// Whatever the solver itself reported: the Σ-gain accounting of the lazy,
  /// stochastic and threshold greedy baselines, which can drift from
  /// `objective` by float rounding; equal to `objective` for the solvers
  /// whose own result is the exact f(S).
  double solver_objective = 0.0;
  /// The run was cancelled or stopped before completing.
  bool preempted = false;
  /// The deadline expired mid-run and the solver degraded gracefully:
  /// `selected` still holds a valid selection (possibly smaller or less
  /// optimized than a full run's), unlike `preempted` which returns nothing.
  bool degraded = false;
  /// Human-readable cause when `degraded` (which stage, how far it got).
  std::string degraded_reason;

  std::vector<StageTiming> timings;
  double total_seconds = 0.0;

  /// Round statistics for the multi-round solvers (empty otherwise).
  std::vector<core::RoundStats> rounds;
  std::optional<BoundingSummary> bounding;
  /// Present iff the request carried constraints (or the ground set is an
  /// overlay with deletions, which the registry folds into blocked ids).
  std::optional<ConstraintSummary> constraints;
  /// Present iff the run was out-of-core (graph::DiskGroundSet-backed).
  std::optional<DiskCacheSummary> disk_cache;
  /// Largest materialized per-partition subproblem (multi-round solvers) or
  /// the engine's materialized working set (centralized baselines).
  std::size_t peak_partition_bytes = 0;
  /// Peak elements resident on one machine: partition size for the
  /// round-based solvers, sieve/merge/coordinator residency for the rest.
  std::size_t peak_resident_elements = 0;
  /// Largest flat kernel incremental state behind one solve unit (0 for the
  /// closed-form pairwise partition path and pure-oracle paths; n·8 bytes of
  /// maintained gains for the pairwise centralized baselines).
  std::size_t peak_kernel_state_bytes = 0;
  /// Solver-specific scalar stats (e.g. GreeDi merge_candidates).
  std::vector<std::pair<std::string, double>> extra;

  /// A config echo of the request, so a report alone reproduces its run.
  DistributedOptions distributed_echo;
  BoundingOptions bounding_echo;
  DataflowOptions dataflow_echo;
  StreamingOptions streaming_echo;
  SamplePruneOptions sample_prune_echo;
  FacilityLocationOptions facility_location_echo;
  CoverageOptions coverage_echo;

  /// Schema-stable JSON document ("subsel.selection_report.v1").
  std::string to_json() const;
};

/// Shared execution state passed to every solver: which threads to run on,
/// which arenas to reuse, how to report progress, and how to stop. One
/// context can serve many sequential runs (arena reuse across runs is the
/// point); it must not be shared by concurrent runs.
class SolverContext {
 public:
  SolverContext() = default;
  /// `pool` may be nullptr (solvers then use the process-global pool); the
  /// pool must outlive the context.
  explicit SolverContext(ThreadPool* pool) : pool_(pool) {}

  ThreadPool* pool() const noexcept { return pool_; }
  core::SubproblemArenaPool& arenas() noexcept { return arenas_; }

  /// Cancellation token threaded into every round loop the solver runs.
  const CancellationToken& cancel() const noexcept { return cancel_; }

  void set_progress(ProgressFn fn) { progress_ = std::move(fn); }
  const ProgressFn& progress() const noexcept { return progress_; }

  /// Wall-clock budget threaded into every solver run on this context.
  /// A deadline is an absolute point in time — set it right before the run
  /// it should govern (a reused context keeps ticking across runs).
  /// `SelectionRequest.deadline_ms` takes precedence when non-zero.
  void set_deadline(Deadline deadline) noexcept { deadline_ = deadline; }
  const Deadline& deadline() const noexcept { return deadline_; }

 private:
  ThreadPool* pool_ = nullptr;
  core::SubproblemArenaPool arenas_;
  CancellationToken cancel_;
  ProgressFn progress_;
  Deadline deadline_;
};

}  // namespace subsel::api
