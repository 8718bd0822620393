// The pluggable objective seam: everything a selection solver needs to know
// about the function it maximizes, captured in one interface.
//
// A kernel provides:
//
//  - exact `evaluate` / `marginal_gain` / `singleton_value` over the full
//    ground set. `evaluate` is the cross-solver comparable f(S) every report
//    carries (computed once per request); `marginal_gain` is the exact
//    oracle the conformance tests, sieve-streaming and the baselines above
//    SubproblemArena::kDenseMembershipLimit points use;
//  - a `gain_offset` making every marginal gain non-negative (the Appendix-A
//    monotonicity shift, 0 for inherently monotone kernels);
//  - exactly one gain engine for the partition solves. Kernels whose marginal
//    gains are *linear in the selected neighborhood* — gain(v|S) =
//    α·(u(v) − (β/α)·Σ_{j∈S∩N(v)} s(v,j)) — expose their ObjectiveParams via
//    `pairwise_params()`, and the solvers run the closed-form materialize +
//    batched-decrease-key path. Every kernel supplies flat, arena-backed
//    *incremental state* (`make_incremental_state`): per-element
//    cover/residual arrays updated in O(deg) per pick, with a gains_batch
//    bulk evaluator the batched lazy driver feeds candidate runs through —
//    one virtual call per batch, flat loops inside. Lazy re-evaluation is
//    exact for any submodular kernel: stale priorities only overestimate, so
//    re-checking the heap top suffices.
//
// Capability flags tell the API layer which solver×objective combinations are
// valid (e.g. the bounding pre-pass needs the pairwise Umin/Umax bounds), so
// invalid combos fail at request validation instead of deep inside a solver.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "common/simd.h"
#include "common/thread_pool.h"
#include "core/objective.h"
#include "core/selection_state.h"
#include "core/subproblem_arena.h"
#include "graph/ground_set.h"

namespace subsel::core {

/// What a kernel can do, consumed by the API layer's solver×objective
/// validation and printed by `subsel objectives`.
struct ObjectiveKernelCaps {
  /// Marginal gains are linear in the selected neighborhood, so the greedy
  /// can run closed-form batched decrease-keys (the Algorithm 2 hot path).
  /// Implies pairwise_params() != nullptr.
  bool linear_priority_updates = false;
  /// The Section 4.1 utility bounds (Umin/Umax) apply, so the bounding
  /// pre-pass (Algorithms 3-5) can run under this objective.
  bool utility_bounds = false;
  /// The Section 5 distributed scoring joins can compute f(S) without any
  /// worker holding S (the edge-decomposable pairwise form).
  bool distributed_scoring = false;
  /// Monotone non-decreasing without any offset (gain_offset() == 0).
  bool monotone = false;
  /// The vectorized backend the kernel's incremental-state inner loops will
  /// dispatch to right now ("scalar", "avx2", "neon") — i.e.
  /// simd::active_backend_name() at the time caps() is called. All exact
  /// backends are bit-identical, so this is diagnostics, not semantics; it is
  /// echoed into SelectionReport JSON and `subsel objectives` so bench
  /// numbers are self-describing across machines.
  const char* simd_backend = "scalar";
};

/// FNV-1a step over a 64-bit value (or a double's bit pattern) — stable
/// across process restarts, unlike std::hash. The building block for
/// ObjectiveKernel::config_fingerprint overrides.
std::uint64_t fingerprint_mix(std::uint64_t hash, std::uint64_t value);
std::uint64_t fingerprint_mix(std::uint64_t hash, double value);

/// Incremental, arena-backed kernel state — the partition gain engine of
/// every kernel. All per-element state (cover/residual masses, weights,
/// gains) lives in flat SubproblemArena buffers reused across partitions and
/// rounds, selections apply O(deg(selected)) delta updates, and gains_batch
/// evaluates whole candidate runs behind ONE virtual call with tight flat
/// loops inside (SIMD-friendly, no per-element dispatch). gain() must agree
/// with the kernel's exact marginal_gain on the subproblem's induced edges
/// (up to floating-point reassociation), and every vectorized backend must
/// reproduce the scalar backend bit-for-bit.
///
/// One state serves one subproblem at a time, `reset` rebinds it, and it is
/// not thread-safe (one per arena, and arenas are checked out per worker).
/// gains_batch is const and safe to call concurrently between mutations.
class KernelIncrementalState {
 public:
  virtual ~KernelIncrementalState() = default;

  /// Binds the state to a materialized subproblem topology and, when
  /// `init_priorities` is set, writes the initial marginal gains
  /// (conditioned on the globally selected points of `state` when given)
  /// into `sub.priorities`. Callers that never read the priority vector —
  /// the sampled drivers and the full-ground-set baseline engine evaluate
  /// strictly through gain()/gains_batch() — pass false and skip that whole
  /// O(n·deg) pass.
  virtual void reset(Subproblem& sub, const SelectionState* state,
                     bool init_priorities = true) = 0;

  /// Exact marginal gain of local id `v` given everything select()ed since
  /// the last reset. O(deg(v)).
  virtual double gain(std::uint32_t v) const = 0;

  /// Bulk gains: out[i] = gain(candidates[i]) for every i, flat loops, no
  /// per-element virtual dispatch. `out.size() >= candidates.size()`.
  virtual void gains_batch(std::span<const std::uint32_t> candidates,
                           std::span<double> out) const = 0;

  /// Commits the selection of local id `v` with O(deg(v)) delta updates to
  /// the flat state.
  virtual void select(std::uint32_t v) = 0;

  /// Bytes of flat per-element state behind this subproblem (the report's
  /// peak_kernel_state_bytes).
  virtual std::size_t state_bytes() const noexcept = 0;

  /// Name of the vectorized backend this state bound at construction
  /// ("scalar", "avx2", "neon"). States capture simd::active_backend() when
  /// created, so a ScopedBackendOverride active at make_incremental_state
  /// time pins the state's arithmetic path for its whole lifetime.
  virtual const char* backend() const noexcept { return "scalar"; }
};

class ObjectiveKernel {
 public:
  virtual ~ObjectiveKernel() = default;

  /// Stable registry-style identifier ("pairwise", "facility-location", ...).
  virtual std::string_view name() const noexcept = 0;
  virtual ObjectiveKernelCaps caps() const noexcept = 0;
  /// The ground set this kernel scores over (kernels are bound to their data:
  /// a kernel is an objective *instance*, not a formula).
  virtual const graph::GroundSet& ground_set() const noexcept = 0;

  /// f(S) for S given as a 0/1 membership bitmap of size num_points().
  virtual double evaluate(const std::vector<std::uint8_t>& membership,
                          ThreadPool* pool = nullptr) const = 0;

  /// f(S) for S given as an id list (builds a bitmap internally).
  double evaluate(std::span<const NodeId> subset, ThreadPool* pool = nullptr) const {
    return evaluate(membership_bitmap(ground_set().num_points(), subset), pool);
  }

  /// f(S ∪ {v}) − f(S) for v ∉ S.
  virtual double marginal_gain(const std::vector<std::uint8_t>& membership,
                               NodeId v) const = 0;

  /// f({v}) — the first-step gain, used by the threshold/sieve baselines.
  virtual double singleton_value(NodeId v) const = 0;

  /// Additive per-element gain shift δ' such that marginal_gain + δ' >= 0 for
  /// every (S, v). 0 for monotone kernels; α·δ (Appendix A) for pairwise.
  virtual double gain_offset(ThreadPool* pool = nullptr) const {
    (void)pool;
    return 0.0;
  }

  /// Non-null iff caps().linear_priority_updates: the exact parameters the
  /// Algorithm 2 fast path should run with. The fast path is bit-identical to
  /// the pre-kernel ObjectiveParams overloads.
  virtual const ObjectiveParams* pairwise_params() const noexcept { return nullptr; }

  /// Hash of everything that parameterizes this kernel instance (not the
  /// ground set). Mixed into distributed_greedy's checkpoint fingerprint
  /// together with name() so a checkpoint written under one objective
  /// configuration never resumes a run under another — override whenever the
  /// kernel has tunable parameters.
  virtual std::uint64_t config_fingerprint() const noexcept { return 0; }

  /// Fresh incremental state whose flat buffers live in `arena` (reused
  /// across every partition/round the arena serves). Never null.
  virtual std::unique_ptr<KernelIncrementalState> make_incremental_state(
      SubproblemArena& arena) const = 0;
};

/// The paper's pairwise objective as the first kernel: a thin adapter over
/// PairwiseObjective whose fast path is the existing arena machinery.
class PairwiseKernel final : public ObjectiveKernel {
 public:
  /// Validates params (alpha > 0, beta >= 0, both finite) — a malformed
  /// --alpha=0 must fail fast instead of pushing inf/NaN into heap
  /// priorities via pair_scale().
  PairwiseKernel(const graph::GroundSet& ground_set, ObjectiveParams params);

  std::string_view name() const noexcept override { return "pairwise"; }
  ObjectiveKernelCaps caps() const noexcept override {
    return {/*linear_priority_updates=*/true, /*utility_bounds=*/true,
            /*distributed_scoring=*/true, /*monotone=*/false,
            /*simd_backend=*/simd::active_backend_name()};
  }
  const graph::GroundSet& ground_set() const noexcept override {
    return *ground_set_;
  }

  double evaluate(const std::vector<std::uint8_t>& membership,
                  ThreadPool* pool = nullptr) const override {
    return objective_.evaluate(membership, pool);
  }
  using ObjectiveKernel::evaluate;

  double marginal_gain(const std::vector<std::uint8_t>& membership,
                       NodeId v) const override {
    return objective_.marginal_gain(membership, v);
  }

  double singleton_value(NodeId v) const override {
    return params_.alpha * ground_set_->utility(v);
  }

  /// α·δ — the shift the sieve/threshold baselines add per accepted element.
  double gain_offset(ThreadPool* pool = nullptr) const override {
    return params_.alpha * objective_.monotonicity_offset(pool);
  }

  const ObjectiveParams* pairwise_params() const noexcept override {
    return &params_;
  }

  std::uint64_t config_fingerprint() const noexcept override;

  /// Maintained pairwise gains as flat state. The solvers never use it
  /// (pairwise_params() wins); kernels wrapping pairwise can.
  std::unique_ptr<KernelIncrementalState> make_incremental_state(
      SubproblemArena& arena) const override;

  const PairwiseObjective& objective() const noexcept { return objective_; }

 private:
  const graph::GroundSet* ground_set_;
  ObjectiveParams params_;
  PairwiseObjective objective_;
};

/// Resolves the objective for a legacy-compatible config surface: returns
/// `*kernel` when the caller supplied one, otherwise constructs a
/// PairwiseKernel over (ground_set, params) into `storage` (validating the
/// params) and returns that. The single spelling of the "explicit kernel
/// wins, else legacy pairwise params" rule used by every round loop and
/// baseline.
const ObjectiveKernel& resolve_kernel(const ObjectiveKernel* kernel,
                                      const graph::GroundSet& ground_set,
                                      ObjectiveParams params,
                                      std::optional<PairwiseKernel>& storage);

}  // namespace subsel::core
