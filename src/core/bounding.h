// Exact and approximate bounding (Sections 4.1–4.3, Algorithms 3–5).
//
// Bounding iteratively tightens two per-point bounds over the unassigned
// ground set V (given the partial solution S′ and remaining budget k):
//
//   Umin(v) = u(v) − (β/α) Σ_{v2 ∈ V ∪ S′, (v,v2)∈E} s(v,v2)   (Def. 4.1)
//   Umax(v) = u(v) − (β/α) Σ_{v2 ∈ S′,     (v,v2)∈E} s(v,v2)   (Def. 4.2)
//
// Grow (Alg. 3): points with Umin(v) > U^k_max must be in the optimal set
// (Lemma 4.3) — select them. Shrink (Alg. 4): points with Umax(v) < U^k_min
// cannot be in it (Lemma 4.4) — discard them. Alg. 5 alternates shrink-to-
// convergence and grow-to-convergence until a fixed point.
//
// Approximate bounding (Sec. 4.2) replaces Umin with the *expected utility*
// Uexp (Def. 4.5), which only subtracts a sampled fraction p of the
// unassigned neighbors (uniformly, or weighted by similarity); neighbors
// already in S′ are always subtracted. Theorem 4.6 bounds the quality loss.
//
// Shrink runs one parallel pass over every unassigned point: its threshold is
// a quantile of every Uexp. Grow touches only what can change its result:
// Uexp ≤ Umax, so only the fewer than k_remaining points whose Umax clears
// U^k_max can be selected, and Umax depends only on S′, so a selection moves
// it only at the selected points' neighbors. bound() therefore keeps a
// GrowState across passes: Umax, plus a window of the unassigned ids whose
// Umax clears a floor set at twice the open budget. Each Grow pass takes
// U^k_max and its candidates from the window, reads those few candidates'
// neighborhoods, then refreshes Umax around what it selected; only the rare
// window rebuild scans the ground set. No step needs the subset resident on
// a single "machine" beyond the one-byte-per-point state vector and the Umax
// array (see beam/ for the dataflow formulation, which re-joins every
// neighborhood on every pass).
#pragma once

#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "common/run_control.h"
#include "common/thread_pool.h"
#include "core/objective.h"
#include "core/objective_kernel.h"
#include "core/selection_state.h"
#include "graph/ground_set.h"

namespace subsel::core {

enum class BoundingSampling : std::uint8_t {
  kNone = 0,     // exact bounding: Umin uses all non-discarded neighbors
  kUniform = 1,  // each unassigned neighbor kept i.i.d. with probability p
  kWeighted = 2, // inclusion probability proportional to edge similarity,
                 // scaled so the expected sampled count is p·deg
};

struct BoundingConfig {
  BoundingSampling sampling = BoundingSampling::kNone;
  /// Neighborhood sample fraction p (Theorem 4.6); ignored for kNone.
  double sample_fraction = 1.0;
  /// Safety cap on the total number of grow+shrink rounds.
  std::size_t max_rounds = 10'000;
  std::uint64_t seed = 17;
  /// Out-of-core pipelining: every bounding pass hands its first
  /// `prefetch_depth` worker chunks to GroundSet::prefetch as asynchronous
  /// page-in hints before the parallel pass starts, so a disk-backed ground
  /// set batches the pass's leading block I/O. No-op for resident ground
  /// sets; 0 disables. Never affects decisions.
  std::size_t prefetch_depth = 2;
  ThreadPool* pool = nullptr;
  /// Wall-clock budget, checked between passes. Bounding decisions are
  /// monotone (selected stays selected, discarded stays discarded), so
  /// stopping early just leaves a smaller pre-pass for the solver — the
  /// result is still valid, flagged `degraded`.
  Deadline deadline;
};

struct BoundingResult {
  SelectionState state;
  /// Points moved into the subset / removed from the ground set.
  std::size_t included = 0;
  std::size_t excluded = 0;
  /// Number of Grow / Shrink invocations, counting the final non-changing one
  /// of each convergence loop (matching how Table 2 reports "1 / 1" for runs
  /// that make no decision).
  std::size_t grow_rounds = 0;
  std::size_t shrink_rounds = 0;
  /// Budget still open after bounding: k − |included|.
  std::size_t k_remaining = 0;
  /// True when the deadline cut the alternation short of its fixed point.
  bool degraded = false;

  bool complete() const noexcept { return k_remaining == 0; }
};

/// Runs Algorithm 5 on kernel.ground_set() for a target subset size k. The
/// bounds are pairwise math and read only β/α = pair_scale(), so this throws
/// std::invalid_argument unless kernel.pairwise_params() is set.
BoundingResult bound(const ObjectiveKernel& kernel, std::size_t k,
                     const BoundingConfig& config);

/// What Grow keeps between passes over one SelectionState: Umax (Def. 4.2)
/// of every point, and the window, the ascending ids of the unassigned points
/// whose Umax ≥ floor().
///
/// Every grow_step with budget left ends with the window holding exactly
/// those ids; a Shrink pass may then discard some of them, and the next
/// grow_step drops those first.
/// Nothing else can stale it: Umax never rises, bit for bit (a refresh folds
/// a superset of the old subtractions in the same CSR order, and rounding is
/// monotone), so no point outside the window can climb above the floor.
///
/// When the window holds fewer ids than the open budget, grow_step rebuilds
/// it with the floor at the unassigned Umax ranked twice the budget, or −∞
/// when fewer points remain (the window is then every unassigned point and
/// is never rebuilt again). That scan of the ground set is the only O(n)
/// step of a Grow pass. Because the window then holds every point at or
/// above the floor, and at least k_remaining of them, its k_remaining-th
/// largest Umax is U^k_max.
class GrowState {
 public:
  /// `u_max` is Umax of every point under the state the passes start from:
  /// u(v) while S′ is empty, else the u_max of compute_utility_bounds. The
  /// window starts empty, so the first grow_step builds it.
  explicit GrowState(std::vector<double> u_max) : u_max_(std::move(u_max)) {}

  /// Umax of every unassigned point; entries of assigned points are stale.
  const std::vector<double>& u_max() const noexcept { return u_max_; }
  const std::vector<NodeId>& window() const noexcept { return window_; }
  double floor() const noexcept { return floor_; }

 private:
  friend std::size_t grow_step(const GroundSet&, ObjectiveParams, SelectionState&,
                               std::size_t&, GrowState&, const BoundingConfig&,
                               std::uint64_t);

  /// Drops the ids that left the unassigned set or fell below the floor.
  void prune(const SelectionState& state);
  /// U^k_max for budget k over the unassigned points of `state`, read off
  /// the window after pruning it (and rebuilding it if it ran short).
  double kth_largest_u_max(const SelectionState& state, std::size_t k);

  std::vector<double> u_max_;
  std::vector<NodeId> window_;
  double floor_ = std::numeric_limits<double>::infinity();
};

// The pass helpers take the pairwise `params` whose pair_scale() = β/α
// enters Umin/Umax; bound() passes its kernel's.

/// One Grow pass (Alg. 3) on an existing state; returns #points selected.
/// `grow` carries Umax and the window from the previous passes over the same
/// `state` (see GrowState). The pass takes U^k_max from the window, evaluates
/// Uexp only for the window's points whose Umax clears that threshold (in
/// ascending id order), and afterwards recomputes Umax for the unassigned
/// neighbors of the points it selected, so `grow` is current for the next
/// pass. It reads fewer than k_remaining neighborhoods to decide plus one
/// per such neighbor, and touches O(window) other entries unless it has to
/// rebuild the window; the selections equal a full pass's bit for bit.
std::size_t grow_step(const GroundSet& ground_set, ObjectiveParams params,
                      SelectionState& state, std::size_t& k_remaining,
                      GrowState& grow, const BoundingConfig& config,
                      std::uint64_t round_salt);

/// One Shrink pass (Alg. 4); returns #points discarded.
std::size_t shrink_step(const GroundSet& ground_set, ObjectiveParams params,
                        SelectionState& state, std::size_t k_remaining,
                        const BoundingConfig& config, std::uint64_t round_salt);

namespace detail {

/// The pairwise params bounding runs with: kernel.pairwise_params(), or
/// std::invalid_argument naming `who` for a kernel without them.
ObjectiveParams bounding_params(const ObjectiveKernel& kernel, const char* who);

/// Deterministic neighbor-sampling decision for approximate bounding: whether
/// edge (v -> neighbor) is included in this round's Uexp sum. Hash-derived so
/// the distributed (beam) and in-memory paths agree bit-for-bit.
bool sample_neighbor(const BoundingConfig& config, std::uint64_t round_salt, NodeId v,
                     NodeId neighbor, float weight, double mean_weight);

/// Computes Umin (or Uexp under sampling) and Umax for all unassigned points;
/// assigned points get NaN. Buffers are resized to num_points().
void compute_utility_bounds(const GroundSet& ground_set, ObjectiveParams params,
                            const SelectionState& state, const BoundingConfig& config,
                            std::uint64_t round_salt, std::vector<double>& u_min,
                            std::vector<double>& u_max);

}  // namespace detail

}  // namespace subsel::core
