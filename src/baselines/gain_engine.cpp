#include "baselines/gain_engine.h"

#include <limits>

namespace subsel::baselines {

MarginalGainEngine::MarginalGainEngine(const core::ObjectiveKernel& kernel)
    : kernel_(&kernel) {
  const std::size_t n = kernel.ground_set().num_points();
  membership_.assign(n, 0);
  if (n > core::SubproblemArena::kDenseMembershipLimit ||
      n > std::numeric_limits<std::uint32_t>::max()) {
    return;  // too large for flat per-element state; oracle fallback
  }
  if (const core::ObjectiveParams* params = kernel.pairwise_params()) {
    // Nothing selected yet: every gain is the singleton value α·u(v).
    beta_ = params->beta;
    pairwise_gains_.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      pairwise_gains_[i] = kernel.singleton_value(static_cast<core::NodeId>(i));
    }
    return;
  }
  state_ = kernel.make_incremental_state(arena_);
  std::vector<core::NodeId> members(n);
  for (std::size_t i = 0; i < n; ++i) members[i] = static_cast<core::NodeId>(i);
  // Identity member list: sorted ascending, so local id == global id and the
  // baselines can use their NodeIds directly against the state.
  core::Subproblem& sub =
      core::materialize_subproblem_topology(kernel.ground_set(), members, arena_);
  // The baselines evaluate strictly through gain()/gains_batch(); the
  // subproblem priority vector is never read, so skip its O(n·deg) fill.
  state_->reset(sub, nullptr, /*init_priorities=*/false);
  sub_ = &sub;
}

double MarginalGainEngine::gain(core::NodeId v) const {
  if (!pairwise_gains_.empty()) {
    return pairwise_gains_[static_cast<std::size_t>(v)];
  }
  if (state_ != nullptr) return state_->gain(static_cast<std::uint32_t>(v));
  return kernel_->marginal_gain(membership_, v);
}

void MarginalGainEngine::gains_batch(std::span<const core::NodeId> candidates,
                                     std::span<double> out) const {
  if (!pairwise_gains_.empty()) {
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      out[i] = pairwise_gains_[static_cast<std::size_t>(candidates[i])];
    }
    return;
  }
  if (state_ != nullptr) {
    local_scratch_.resize(candidates.size());
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      local_scratch_[i] = static_cast<std::uint32_t>(candidates[i]);
    }
    state_->gains_batch(local_scratch_, out);
    return;
  }
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    out[i] = kernel_->marginal_gain(membership_, candidates[i]);
  }
}

void MarginalGainEngine::select(core::NodeId v) {
  membership_[static_cast<std::size_t>(v)] = 1;
  if (!pairwise_gains_.empty()) {
    // One read of N(v): each neighbor u loses β·s(v, u) from its gain. A
    // selected u's entry is never read again, and ids >= n (points added to
    // a mutable ground set after construction) have no entry.
    const std::size_t n = pairwise_gains_.size();
    for (const graph::Edge& e :
         kernel_->ground_set().neighbors_span(v, edge_scratch_)) {
      const auto u = static_cast<std::size_t>(e.neighbor);
      if (u < n) pairwise_gains_[u] -= beta_ * e.weight;
    }
    return;
  }
  if (state_ != nullptr) state_->select(static_cast<std::uint32_t>(v));
}

}  // namespace subsel::baselines
