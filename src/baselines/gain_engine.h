// Marginal-gain engine for the centralized/full-ground-set baselines
// (lazy/stochastic/threshold greedy, SAMPLE&PRUNE).
//
// Those baselines evaluate marginal gains against ONE growing solution over
// the whole ground set. Historically every evaluation went through the
// kernel's exact oracle, which for the coverage-family kernels recomputes
// each neighbor's coverage from scratch — O(deg^2) per gain, the
// 10-80x solve-phase gap recorded in BENCH_objective_matrix.json. This
// engine picks the fastest exact gain machinery the kernel offers:
//
//  - pairwise-family kernels (pairwise_params() != nullptr) use Algorithm
//    2's maintained gains: one flat array seeded with α·u(v), from which
//    select(s) subtracts β·s(s, v) for every neighbor v of s. A gain is a
//    load and a solve reads one neighborhood per selection — the oracle
//    reads one per evaluated candidate, which out of core is one block
//    read per evaluation;
//  - every other kernel gets the whole ground set materialized once as a
//    single subproblem (global id == local id) and runs its incremental
//    state over it: flat O(deg) gains + O(deg) delta updates +
//    one-virtual-call batch evaluation;
//  - ground sets larger than SubproblemArena::kDenseMembershipLimit fall
//    back to the exact oracle for every kernel.
//
// The engine owns the membership bitmap: baselines call select() instead of
// flipping their own bitmap, so the oracle and state paths can never drift.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/greedy.h"
#include "core/objective_kernel.h"

namespace subsel::baselines {

class MarginalGainEngine {
 public:
  /// Binds to `kernel` (non-owning; must outlive the engine) over the
  /// ground set's current num_points() = n. Flat state is only engaged up to
  /// SubproblemArena::kDenseMembershipLimit points — beyond it (the virtual
  /// multi-billion-point sets) the per-element arrays would dominate, so the
  /// oracle path runs instead.
  explicit MarginalGainEngine(const core::ObjectiveKernel& kernel);

  bool is_selected(core::NodeId v) const {
    return membership_[static_cast<std::size_t>(v)] != 0;
  }

  /// Exact marginal gain of v given everything select()ed so far.
  double gain(core::NodeId v) const;

  /// out[i] = gain(candidates[i]); a gather for pairwise, one virtual
  /// dispatch total for the other incremental states.
  void gains_batch(std::span<const core::NodeId> candidates,
                   std::span<double> out) const;

  /// Adds v (< n) to the solution. Neighbors with ids >= n carry no engine
  /// state and are skipped.
  void select(core::NodeId v);

  bool incremental() const noexcept {
    return !pairwise_gains_.empty() || state_ != nullptr;
  }
  std::size_t materialized_bytes() const noexcept {
    return sub_ != nullptr ? sub_->byte_size() : 0;
  }
  std::size_t kernel_state_bytes() const noexcept {
    if (state_ != nullptr) return state_->state_bytes();
    return pairwise_gains_.size() * sizeof(double);
  }

 private:
  const core::ObjectiveKernel* kernel_;
  std::vector<std::uint8_t> membership_;
  // Pairwise: pairwise_gains_[v] = gain(v | S), and beta_ = β.
  std::vector<double> pairwise_gains_;
  double beta_ = 0.0;
  std::vector<graph::Edge> edge_scratch_;
  // Every other kernel: the ground set as one subproblem plus its state.
  core::SubproblemArena arena_;
  const core::Subproblem* sub_ = nullptr;
  std::unique_ptr<core::KernelIncrementalState> state_;
  mutable std::vector<std::uint32_t> local_scratch_;  // NodeId -> local gather
};

}  // namespace subsel::baselines
