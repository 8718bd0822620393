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
//  - pairwise-family kernels (pairwise_params() != nullptr) keep the exact
//    O(deg) oracle — bit-identical to the historical implementations;
//  - every other kernel gets the whole ground set materialized once as a
//    single subproblem (global id == local id) and runs its incremental
//    state over it: flat O(deg) gains + O(deg) delta updates +
//    one-virtual-call batch evaluation;
//  - ground sets too large to materialize fall back to the exact oracle.
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
  /// Binds to `kernel` (non-owning; must outlive the engine) and, on the
  /// incremental path, materializes the full ground set into an internal
  /// arena. The state path is only engaged up to
  /// SubproblemArena::kDenseMembershipLimit points — beyond it (the virtual
  /// multi-billion-point sets) the CSR copy would dominate, so the oracle
  /// path runs instead.
  explicit MarginalGainEngine(const core::ObjectiveKernel& kernel);

  bool is_selected(core::NodeId v) const {
    return membership_[static_cast<std::size_t>(v)] != 0;
  }

  /// Exact marginal gain of v given everything select()ed so far.
  double gain(core::NodeId v) const;

  /// out[i] = gain(candidates[i]); one virtual dispatch total on the
  /// incremental path.
  void gains_batch(std::span<const core::NodeId> candidates,
                   std::span<double> out) const;

  void select(core::NodeId v);

  bool incremental() const noexcept { return state_ != nullptr; }
  std::size_t materialized_bytes() const noexcept {
    return sub_ != nullptr ? sub_->byte_size() : 0;
  }
  std::size_t kernel_state_bytes() const noexcept {
    return state_ != nullptr ? state_->state_bytes() : 0;
  }

 private:
  const core::ObjectiveKernel* kernel_;
  std::vector<std::uint8_t> membership_;
  core::SubproblemArena arena_;
  const core::Subproblem* sub_ = nullptr;
  std::unique_ptr<core::KernelIncrementalState> state_;
  mutable std::vector<std::uint32_t> local_scratch_;  // NodeId -> local gather
};

}  // namespace subsel::baselines
