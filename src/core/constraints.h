// Composable selection constraints beyond the cardinality budget k.
//
// A ConstraintSet describes, over GLOBAL node ids, any combination of
//   - a knapsack budget: per-element costs plus a total cost budget,
//   - a partition matroid: per-element group ids plus per-group caps
//     (fairness quotas: "at most cap_g elements from group g"),
//   - a blocked set: elements that may never be selected.
//
// All three are DOWNWARD CLOSED (every subset of a feasible set is feasible)
// and MONOTONE INFEASIBLE under growth: once an element cannot be added to
// the current selection, it can never become addable as the selection grows
// — spent cost only increases and group counts only increase. The greedy
// drivers rely on this to drop infeasible heap pops permanently instead of
// re-queueing them.
//
// ConstraintSet is immutable shared configuration; ConstraintTracker is the
// cheap per-solve mutable view (spent cost + per-group counts) providing
// O(1) feasible / accept. Solvers that never see a ConstraintSet
// (constraints == nullptr, the default everywhere) are bit-identical to the
// pre-constraint code paths — checkpoints, golden fixtures, and the SIMD
// parity contract all depend on that.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/similarity_graph.h"

namespace subsel::core {

using graph::NodeId;

/// Immutable constraint configuration over global node ids. Empty vectors
/// mean "this constraint family is inactive"; a default-constructed set is
/// `empty()` and equivalent to passing no constraints at all.
struct ConstraintSet {
  /// Knapsack: active when `cost_budget > 0`. `costs` must then have one
  /// entry per ground-set element (validate() enforces this).
  std::vector<double> costs;
  double cost_budget = 0.0;

  /// Partition matroid: active when `groups` is non-empty (one group id per
  /// element). `group_caps[g]` bounds group g; it must cover every group id
  /// appearing in `groups`.
  std::vector<std::uint32_t> groups;
  std::vector<std::size_t> group_caps;

  /// Elements that may never be selected. Sorted ascending, deduplicated by
  /// validate().
  std::vector<NodeId> blocked;

  bool has_knapsack() const noexcept { return cost_budget > 0.0; }
  bool has_matroid() const noexcept { return !groups.empty(); }
  bool has_blocked() const noexcept { return !blocked.empty(); }
  bool empty() const noexcept {
    return !has_knapsack() && !has_matroid() && !has_blocked();
  }

  /// Throws std::invalid_argument when the set is inconsistent for a ground
  /// set of `num_points` elements (size mismatches, negative costs, group id
  /// without a cap, blocked id out of range). Sorts + dedups `blocked`.
  void validate(std::size_t num_points);

  /// Single source of truth for the knapsack acceptance comparison, shared
  /// by the tracker and the brute-force oracle so float-sum ordering can
  /// never make them disagree about a marginal element.
  bool fits_cost(double spent, double element_cost) const noexcept {
    return spent + element_cost <= cost_budget + kCostSlack * cost_budget;
  }

  /// Total cost of a subset (0 when the knapsack family is inactive).
  double cost_of(std::span<const NodeId> subset) const noexcept;

  /// True iff `subset` (assumed duplicate-free) satisfies every active
  /// family. Cardinality is the caller's business.
  bool feasible_subset(std::span<const NodeId> subset) const;

  /// Stable identity of the constraint configuration, mixed into checkpoint
  /// run fingerprints — but only when `!empty()`, so unconstrained runs keep
  /// their pre-constraint fingerprints and can resume old checkpoints.
  std::uint64_t fingerprint() const noexcept;

  static constexpr double kCostSlack = 1e-9;
};

/// Mutable per-solve view over one ConstraintSet: the spent cost, per-group
/// selection counts, and a blocked bitmap. feasible/accept are O(1).
/// Cheap to copy (sieve-streaming keeps one per sieve).
class ConstraintTracker {
 public:
  /// `constraints` must outlive the tracker and must already be validated
  /// against the ground set the ids come from.
  explicit ConstraintTracker(const ConstraintSet& constraints);

  /// Counts an already-committed selection (pre-selected survivors from a
  /// bounding stage or a previous round) against the budgets. Infeasible
  /// seeds are counted anyway — seeding never throws.
  void seed(std::span<const NodeId> selected);

  /// Would adding `v` to the tracked selection stay feasible? Blocked
  /// elements are never feasible.
  bool feasible(NodeId v) const noexcept {
    const auto i = static_cast<std::size_t>(v);
    if (i < blocked_.size() && blocked_[i]) return false;
    if (constraints_->has_knapsack() &&
        !constraints_->fits_cost(spent_cost_,
                                 constraints_->costs[static_cast<std::size_t>(v)])) {
      return false;
    }
    if (constraints_->has_matroid()) {
      const auto g = constraints_->groups[static_cast<std::size_t>(v)];
      if (group_counts_[g] >= constraints_->group_caps[g]) return false;
    }
    return true;
  }

  void accept(NodeId v) noexcept {
    if (constraints_->has_knapsack()) {
      spent_cost_ += constraints_->costs[static_cast<std::size_t>(v)];
    }
    if (constraints_->has_matroid()) {
      ++group_counts_[constraints_->groups[static_cast<std::size_t>(v)]];
    }
  }

  double spent_cost() const noexcept { return spent_cost_; }
  const ConstraintSet& constraints() const noexcept { return *constraints_; }

 private:
  const ConstraintSet* constraints_;
  double spent_cost_ = 0.0;
  std::vector<std::size_t> group_counts_;
  std::vector<std::uint8_t> blocked_;  // bitmap over [0, num_points)
};

}  // namespace subsel::core
