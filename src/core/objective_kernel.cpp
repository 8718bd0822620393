#include "core/objective_kernel.h"

#include <bit>

#include "core/kernel_simd.h"

namespace subsel::core {

std::uint64_t fingerprint_mix(std::uint64_t hash, std::uint64_t value) {
  // FNV-1a over the value's bytes — deliberately not std::hash, which is not
  // guaranteed stable across process restarts (checkpoint files persist).
  for (int byte = 0; byte < 8; ++byte) {
    hash = (hash ^ ((value >> (8 * byte)) & 0xFF)) * 0x100000001b3ULL;
  }
  return hash;
}

std::uint64_t fingerprint_mix(std::uint64_t hash, double value) {
  return fingerprint_mix(hash, std::bit_cast<std::uint64_t>(value));
}

namespace {

/// Pairwise gains maintained incrementally: gain(v|S) = α·u(v) − β·Σ s over
/// selected neighbors, so selecting v1 lowers each local neighbor's gain by
/// β·s. Gains are held in an arena buffer and batch reads carry no
/// per-element dispatch. Marginal gains are linear in the selected
/// neighborhood, so the maintained array IS always fresh — gains_batch is a
/// pure gather, dispatched to the vectorized backend bound at construction
/// (loads only, so every backend is trivially bit-identical). The solvers
/// route pairwise through the closed-form path (pairwise_params()) instead;
/// this state serves kernels that wrap pairwise without exposing its params.
class PairwiseIncrementalState final : public KernelIncrementalState {
 public:
  PairwiseIncrementalState(const graph::GroundSet& ground_set,
                           ObjectiveParams params, SubproblemArena& arena)
      : ground_set_(&ground_set),
        params_(params),
        arena_(&arena),
        ops_(&ksimd::active_ops()),
        gains_(arena.kernel_state_buffer(0)) {}

  void reset(Subproblem& sub, const SelectionState* state,
             bool init_priorities) override {
    sub_ = &sub;
    const std::size_t n = sub.size();
    gains_.resize(n);
    std::vector<graph::Edge>& scratch = arena_->edge_scratch();
    for (std::size_t i = 0; i < n; ++i) {
      const NodeId v = sub.global_ids[i];
      double gain = params_.alpha * ground_set_->utility(v);
      if (state != nullptr) {
        for (const graph::Edge& e : ground_set_->neighbors_span(v, scratch)) {
          if (state->is_selected(e.neighbor)) gain -= params_.beta * e.weight;
        }
      }
      gains_[i] = gain;
    }
    if (init_priorities) {
      sub.priorities.assign(gains_.begin(), gains_.end());
    }
  }

  double gain(std::uint32_t v) const override { return gains_[v]; }

  void gains_batch(std::span<const std::uint32_t> candidates,
                   std::span<double> out) const override {
    ops_->gather(gains_.data(), candidates.data(), candidates.size(),
                 out.data());
  }

  void select(std::uint32_t v) override {
    const auto begin = static_cast<std::size_t>(sub_->offsets[v]);
    const auto end = static_cast<std::size_t>(sub_->offsets[v + 1]);
    const Subproblem::LocalEdge* edges = sub_->edges.data();
    for (std::size_t e = begin; e < end; ++e) {
      gains_[edges[e].neighbor] -= params_.beta * edges[e].weight;
    }
  }

  std::size_t state_bytes() const noexcept override {
    return gains_.size() * sizeof(double);
  }

  const char* backend() const noexcept override { return ops_->name; }

 private:
  const graph::GroundSet* ground_set_;
  ObjectiveParams params_;
  SubproblemArena* arena_;
  const ksimd::KernelSimdOps* ops_;
  const Subproblem* sub_ = nullptr;
  std::vector<double>& gains_;
};

}  // namespace

PairwiseKernel::PairwiseKernel(const graph::GroundSet& ground_set,
                               ObjectiveParams params)
    : ground_set_(&ground_set),
      params_(params),
      objective_(ground_set, params) {}  // the PairwiseObjective ctor validates

std::uint64_t PairwiseKernel::config_fingerprint() const noexcept {
  return fingerprint_mix(fingerprint_mix(0xcbf29ce484222325ULL, params_.alpha),
                         params_.beta);
}

std::unique_ptr<KernelIncrementalState> PairwiseKernel::make_incremental_state(
    SubproblemArena& arena) const {
  return std::make_unique<PairwiseIncrementalState>(*ground_set_, params_, arena);
}

const ObjectiveKernel& resolve_kernel(const ObjectiveKernel* kernel,
                                      const graph::GroundSet& ground_set,
                                      ObjectiveParams params,
                                      std::optional<PairwiseKernel>& storage) {
  if (kernel != nullptr) return *kernel;
  storage.emplace(ground_set, params);  // validates params
  return *storage;
}

}  // namespace subsel::core
