// Plain-loop pairwise incremental state: the reference the closed-form
// pairwise partition path (materialize_subproblem + greedy_on_subproblem) is
// cross-checked against.
//
// Pairwise kernels keep no incremental state in the library —
// make_incremental_state returns null whenever pairwise_params() is set —
// because their marginal gains are linear in the selected neighborhood:
// gain(v|S) = α·u(v) − β·Σ_{j∈S∩N(v)} s(v,j). This state maintains exactly
// that array (selecting v lowers each local neighbor's gain by β·s), so the
// kernel-generic lazy driver and the one-at-a-time loop in lazy_reference.h
// can run pairwise too and be compared with the closed form, whose
// priorities differ from these gains by association only.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/objective_kernel.h"

namespace subsel::testing {

class PairwiseIncrementalState final : public core::KernelIncrementalState {
 public:
  PairwiseIncrementalState(const graph::GroundSet& ground_set,
                           core::ObjectiveParams params)
      : ground_set_(&ground_set), params_(params) {}

  void reset(core::Subproblem& sub, const core::SelectionState* state,
             bool init_priorities = true) override {
    sub_ = &sub;
    gains_.resize(sub.size());
    std::vector<graph::Edge> scratch;
    for (std::size_t i = 0; i < sub.size(); ++i) {
      const graph::NodeId v = sub.global_ids[i];
      double gain = params_.alpha * ground_set_->utility(v);
      if (state != nullptr) {
        for (const graph::Edge& e : ground_set_->neighbors_span(v, scratch)) {
          if (state->is_selected(e.neighbor)) gain -= params_.beta * e.weight;
        }
      }
      gains_[i] = gain;
    }
    if (init_priorities) sub.priorities.assign(gains_.begin(), gains_.end());
  }

  double gain(std::uint32_t v) const override { return gains_[v]; }

  void gains_batch(std::span<const std::uint32_t> candidates,
                   std::span<double> out) const override {
    for (std::size_t i = 0; i < candidates.size(); ++i) out[i] = gains_[candidates[i]];
  }

  void select(std::uint32_t v) override {
    const auto begin = static_cast<std::size_t>(sub_->offsets[v]);
    const auto end = static_cast<std::size_t>(sub_->offsets[v + 1]);
    for (std::size_t e = begin; e < end; ++e) {
      const core::Subproblem::LocalEdge& edge = sub_->edges[e];
      gains_[edge.neighbor] -= params_.beta * edge.weight;
    }
  }

  std::size_t state_bytes() const noexcept override {
    return gains_.size() * sizeof(double);
  }

 private:
  const graph::GroundSet* ground_set_;
  core::ObjectiveParams params_;
  const core::Subproblem* sub_ = nullptr;
  std::vector<double> gains_;
};

/// The incremental state for `kernel`: its own, or the reference above for
/// a pairwise kernel (which keeps none).
inline std::unique_ptr<core::KernelIncrementalState> incremental_state_for(
    const core::ObjectiveKernel& kernel, core::SubproblemArena& arena) {
  if (const core::ObjectiveParams* params = kernel.pairwise_params()) {
    return std::make_unique<PairwiseIncrementalState>(kernel.ground_set(), *params);
  }
  return kernel.make_incremental_state(arena);
}

}  // namespace subsel::testing
