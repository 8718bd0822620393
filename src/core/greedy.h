// Centralized greedy maximization of pairwise submodular functions
// (Algorithms 1 and 2 of the paper).
//
// For f(S) = α Σ u(v) − β Σ s(v1,v2), the marginal gain of v given S is
// α·(u(v) − (β/α) Σ_{j∈S, (v,j)∈E} s(v,j)), so the greedy can keep a priority
// queue initialized with the utilities and, on every pop, lower the priority
// of the popped point's still-queued neighbors by (β/α)·s — no full gain
// recomputation (Algorithm 2). This is the (1−1/e) gold standard the paper
// normalizes every distributed result against.
//
// The same routine runs inside each partition of the distributed algorithm;
// `Subproblem` materializes a partition (or any id subset) with
// cross-partition edges dropped and utilities optionally conditioned on an
// already-selected partial solution.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/constraints.h"
#include "core/objective.h"
#include "core/objective_kernel.h"
#include "core/selection_state.h"
#include "core/subproblem_arena.h"
#include "graph/ground_set.h"
#include "graph/similarity_graph.h"

namespace subsel::core {

struct GreedyResult {
  /// Selected ids in pick order (global ids).
  std::vector<NodeId> selected;
  /// α · Σ (priority at pop time) = f(selected) *within the subproblem*,
  /// i.e. ignoring edges that the subproblem dropped. When utilities were
  /// conditioned on a partial solution S′, this additionally accounts for
  /// edges into S′. For the exact global objective re-evaluate with
  /// PairwiseObjective.
  double objective = 0.0;
  /// Bytes of the materialized subproblem CSR backing the solve (0 for
  /// pure-oracle paths that never materialize one).
  std::size_t materialized_bytes = 0;
  /// Bytes of flat kernel incremental state backing the solve (0 for the
  /// closed-form pairwise partition path and oracle paths).
  std::size_t kernel_state_bytes = 0;
  /// True when a deadline cut the solve short; `selected` then holds the
  /// valid (merely smaller) prefix chosen before time ran out.
  bool degraded = false;
};

/// Throws std::invalid_argument naming `who` unless `epsilon` lies in (0, 1)
/// (NaN included). ε is the accuracy knob of the sampled and threshold
/// baselines; 0 or 1 would hang them or turn their sample size into UB.
void validate_epsilon(double epsilon, const char* who);

/// Materializes the subproblem induced by `members` (any order; sorted
/// internally) into `arena`'s reusable storage and returns a reference to it
/// (valid until the arena's next materialize). Edges to non-members are
/// dropped — exactly the "discard any neighborhood relation across
/// partitions" rule of Section 4.4. If `state` is given, member utilities are
/// conditioned on its selected points (edges into S′ keep influencing
/// marginal gains, Definition 4.2-style). Membership tests use the arena's
/// epoch-stamped scatter map (O(1) per edge, no per-partition clearing) when
/// the ground set is small enough for the dense map, and binary search over
/// the member list otherwise; neighborhoods are read through the zero-copy
/// GroundSet::neighbors_span path.
const Subproblem& materialize_subproblem(const GroundSet& ground_set,
                                         std::span<const NodeId> members,
                                         ObjectiveParams params,
                                         const SelectionState* state,
                                         SubproblemArena& arena);

/// Algorithm 2 on a subproblem; selects min(k, size) points. Runs on the
/// arena's reusable heap (no per-partition allocation) and applies each
/// pop's neighbor updates with one fused decrease pass straight off the CSR
/// slice. `subproblem` may be (and typically is) the arena's own subproblem.
///
/// All subproblem drivers take an optional ConstraintTracker (global-id
/// space). When given, a popped candidate that the tracker rejects is dropped
/// permanently — valid because every ConstraintSet family is monotone
/// infeasible under selection growth — and the solve may legitimately return
/// fewer than k points once no feasible candidate remains. With
/// tracker == nullptr every driver is bit-identical to its pre-constraint
/// behavior.
GreedyResult greedy_on_subproblem(const Subproblem& subproblem, std::size_t k,
                                  ObjectiveParams params, SubproblemArena& arena,
                                  ConstraintTracker* tracker = nullptr);

/// Topology-only arena materialization for the incremental-state path: global
/// ids + member-restricted CSR, with `priorities` sized but left for the
/// kernel's KernelIncrementalState to fill (KernelIncrementalState::reset).
/// Shares the epoch-stamped scatter-map membership machinery of the pairwise
/// overload.
Subproblem& materialize_subproblem_topology(const GroundSet& ground_set,
                                            std::span<const NodeId> members,
                                            SubproblemArena& arena);

/// Lazy greedy (Minoux) over flat incremental kernel state — the partition
/// solver for kernels without closed-form priority updates. The heap holds
/// possibly-stale gains (exact for any submodular kernel: stale values only
/// ever overestimate). Stale heap tops are popped in runs of up to
/// kGainRefreshBatch, re-evaluated with ONE gains_batch call (flat loops, no
/// per-candidate virtual dispatch), and pushed back with their fresh gains.
/// Because heap pop/peek order is the (priority, id) total order and fresh
/// gains can only be lower than stale ones (submodularity), the accepted
/// element each step is identical to a one-at-a-time lazy loop's. Ties break
/// toward smaller local ids. `state` must already be reset() on
/// `subproblem` (its initial gains are read from subproblem.priorities).
GreedyResult incremental_greedy_on_subproblem(const Subproblem& subproblem,
                                              std::size_t k,
                                              KernelIncrementalState& state,
                                              SubproblemArena& arena,
                                              ConstraintTracker* tracker = nullptr);

/// Candidates the batched lazy driver re-evaluates per gains_batch call.
inline constexpr std::size_t kGainRefreshBatch = 32;

/// The one partition-solve entry point the round loops (distributed greedy,
/// GreeDi, beam) call: materializes `members` of kernel.ground_set() and
/// runs the centralized greedy of Algorithm 6's partitions on them,
/// selecting min(k, size) points under `kernel`. Pairwise-family kernels
/// (pairwise_params() != nullptr) run Algorithm 2's closed form
/// (greedy_on_subproblem); every other kernel runs the batched lazy driver
/// over its incremental state (incremental_greedy_on_subproblem).
/// Incremental states bind the vectorized backend active when the call
/// starts, so a simd::ScopedBackendOverride around it pins the whole solve to
/// one backend. `materialized_bytes`/`state_bytes`, when non-null, receive
/// the subproblem's byte size and the flat kernel-state byte size (the
/// round-stats memory numbers; both are also set on the returned
/// GreedyResult).
///
/// `constraints` (global-id space, validated) activates constrained
/// acceptance in whichever driver runs: a fresh ConstraintTracker is seeded
/// from `state`'s already-selected points (they count against budgets and
/// caps) and candidates it rejects are skipped permanently, so the result may
/// hold fewer than k points. nullptr (the default) is bit-identical to the
/// unconstrained code paths.
GreedyResult solve_partition(const ObjectiveKernel& kernel,
                             std::span<const NodeId> members, std::size_t k,
                             const SelectionState* state, SubproblemArena& arena,
                             std::size_t* materialized_bytes = nullptr,
                             std::size_t* state_bytes = nullptr,
                             const ConstraintSet* constraints = nullptr);

/// Algorithm 2 on a full materialized dataset (fast path, no id translation).
GreedyResult centralized_greedy(const graph::SimilarityGraph& graph,
                                const std::vector<double>& utilities,
                                ObjectiveParams params, std::size_t k);

}  // namespace subsel::core
