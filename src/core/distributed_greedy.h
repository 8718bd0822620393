// Distributed multi-round partition-based greedy (Section 4.4, Algorithm 6).
//
// Each round: randomly partition the surviving points over the machines, run
// the centralized greedy inside every partition in parallel (dropping edges
// that cross partitions), and union the per-partition selections as the next
// round's ground set. Round sizes follow a Δ schedule (linear interpolation
// with factor γ, default 0.75 as in Section 6.1); the last round's target is
// k by construction. Unlike GreeDi/RandGreeDi there is *no* final centralized
// merge — the union (subsampled to k for rounding slack) is the answer, so no
// machine ever has to hold the full subset.
//
// Adaptive partitioning (the paper's default ablation): the number of
// partitions used in a round is the minimum needed to fit that round's target
// under the per-machine capacity ⌈|V|/m⌉, which recovers more neighborhood
// edges as the data shrinks. Disable it to reproduce Figure 3/12/13.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/run_control.h"
#include "common/thread_pool.h"
#include "core/greedy.h"
#include "core/objective.h"
#include "core/selection_state.h"
#include "graph/ground_set.h"

namespace subsel::core {

/// The round-size schedule Δ(|V|, r, round, k): the paper's linear
/// interpolation Δ = min(⌈γ·(r−round)·(|V|−k)/r⌉ + k, |V|) (Section 6.1,
/// γ = 0.75; Appendix E ablates γ). Δ(·, r, r, k) = k, so the last round
/// targets k.
/// Requires a finite γ > 0, which distributed_greedy and
/// beam_distributed_greedy check before any round runs.
std::size_t linear_delta(std::size_t v0, std::size_t rounds, std::size_t round,
                         std::size_t k, double gamma = 0.75);

/// Everything about a run except the objective, which is the kernel
/// distributed_greedy is given.
struct DistributedGreedyConfig {
  /// m — machines available (= maximum parallel partitions).
  std::size_t num_machines = 8;
  /// r — rounds of partition/select/union.
  std::size_t num_rounds = 1;
  bool adaptive_partitioning = true;
  /// γ of the linear_delta round-size schedule; must be finite and > 0.
  double delta_gamma = 0.75;
  std::uint64_t seed = 23;
  /// Out-of-core pipelining: at the start of every round, the first
  /// `prefetch_depth` partitions of the round's plan are handed to
  /// GroundSet::prefetch as asynchronous page-in hints on the worker pool,
  /// so a disk-backed ground set batches its block I/O (sorted, deduplicated)
  /// ahead of the solve loop instead of demand-missing one block at a time.
  /// No-op for resident ground sets; 0 disables. Never affects selections.
  std::size_t prefetch_depth = 2;
  /// Round checkpointing for long runs (the paper's jobs run 10-48 h on a
  /// shared cluster, Appendix D): after every round the surviving ids and
  /// round statistics are persisted to this file; a later call with an
  /// equivalent config resumes from the last completed round instead of
  /// restarting. Empty disables. The checkpoint is removed on completion.
  /// Writes are crash-consistent (write-temp, fsync, atomic rename): a kill
  /// at ANY instant leaves either the previous complete checkpoint or the
  /// new one, never a torn file.
  std::string checkpoint_file;
  /// Persist the checkpoint every N completed rounds (1 = every round, the
  /// default; 0 behaves as 1). Larger values trade recovery granularity for
  /// fewer fsyncs on fast rounds.
  std::size_t checkpoint_every = 1;
  /// Graceful-preemption hook: stop after this many completed rounds of
  /// THIS invocation (0 = run to the end). With a checkpoint_file, the next
  /// invocation picks up where this one stopped. The partial result has
  /// `preempted` set and `selected` left empty.
  std::size_t stop_after_round = 0;
  ThreadPool* pool = nullptr;
  /// Reusable per-worker arenas shared across invocations (e.g. the
  /// api::SolverContext pool); nullptr uses a run-local pool.
  SubproblemArenaPool* arena_pool = nullptr;
  /// Cooperative cancellation, checked once per round boundary. A run stopped
  /// this way returns with `preempted` set (and, with a checkpoint_file, can
  /// be resumed by a later invocation) — the same contract as
  /// stop_after_round, but triggered externally, e.g. from a progress
  /// callback or another thread.
  CancellationToken cancel;
  /// Per-round heartbeat (stage "round"); runs on the driver thread after
  /// each round completes and may call cancel.request_stop().
  ProgressFn progress;
  /// Wall-clock budget, checked at the same round boundaries as `cancel`.
  /// Expiry does NOT preempt: the run stops early and returns a VALID
  /// best-so-far selection (the current survivors subsampled to the budget)
  /// with `degraded` set — and keeps the checkpoint, so a later unhurried
  /// invocation can still resume and finish properly.
  Deadline deadline;
  /// Worst-case partitioning ablation (Section 6.4): if set, round 1 places
  /// exactly these points into one partition and splits the rest randomly.
  std::optional<std::vector<NodeId>> forced_first_partition;
  /// Composable selection constraints (knapsack / partition matroid /
  /// blocked), global-id space, validated; non-owning, must outlive the run.
  /// Partition solves enforce them locally every round, and the final step
  /// replaces the uniform rounding subsample with a constrained greedy solve
  /// over the surviving union so the RETURNED selection is globally feasible
  /// (and may therefore hold fewer than k points). The constraint fingerprint
  /// joins the checkpoint run identity only when set, so unconstrained runs
  /// keep their pre-constraint checkpoints. nullptr (default) is bit-identical
  /// to the unconstrained path.
  const ConstraintSet* constraints = nullptr;
};

struct RoundStats {
  std::size_t round = 0;
  std::size_t input_size = 0;       // |V_{round-1}|
  std::size_t target_size = 0;      // n_round from Δ
  std::size_t num_partitions = 0;   // m_round
  std::size_t output_size = 0;      // |V_round| after the union
  std::size_t peak_partition_bytes = 0;  // largest materialized subproblem
  /// Largest flat kernel incremental state behind one partition (0 for the
  /// closed-form pairwise path, which keeps no per-element kernel state).
  std::size_t peak_state_bytes = 0;
};

struct DistributedGreedyResult {
  /// Exactly k ids (ascending), including any points pre-selected by bounding.
  /// Empty if the run was preempted before the last round.
  std::vector<NodeId> selected;
  /// f(selected) evaluated on the full ground set (0 when preempted).
  double objective = 0.0;
  /// Stats of the rounds THIS invocation executed (resumed rounds excluded).
  std::vector<RoundStats> rounds;
  /// Rounds restored from the checkpoint instead of executed.
  std::size_t resumed_rounds = 0;
  /// True when stop_after_round or the cancellation token preempted the run
  /// before completion.
  bool preempted = false;
  /// True when the deadline expired mid-run: `selected` holds the best-so-
  /// far selection (still exactly min(k, survivors + pre-selected) ids,
  /// still objective-evaluated) instead of the full-quality result.
  bool degraded = false;
  /// Human-readable cause when degraded (e.g. which round the deadline hit).
  std::string degraded_reason;
};

/// Runs Algorithm 6 to select k points of kernel.ground_set() under
/// `kernel`: pairwise-family kernels run the closed-form arena path, others
/// their incremental state (see core/objective_kernel.h). If `initial` is
/// given (the state left by bounding), its selected points are kept (and
/// condition the per-partition utilities), its discarded points are never
/// reconsidered, and the rounds only fill the remaining budget.
DistributedGreedyResult distributed_greedy(const ObjectiveKernel& kernel, std::size_t k,
                                           const DistributedGreedyConfig& config,
                                           const SelectionState* initial = nullptr);

}  // namespace subsel::core
