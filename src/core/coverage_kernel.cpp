#include "core/coverage_kernel.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/kernel_simd.h"

namespace subsel::core {
namespace {

ThreadPool& pool_or_global(ThreadPool* pool) {
  return pool != nullptr ? *pool : global_thread_pool();
}

// The incremental state works in PREMULTIPLIED RESIDUAL space: per member u
// it tracks resid[u], initialized to fl(weight[u]·τ) and decremented by
// fl(weight[u]·s) for every selected contribution s, and a candidate's gain
// is
//
//   min(pself_v, max(resid[v], 0)) + Σ_e min(fl(w_u·s_e), max(resid[u], 0))
//
// with the edge sum in the lane-split order of core/kernel_simd.h. For w ≥ 0
// this is the same algebra as w·(min(τ, m+s) − min(τ, m)) — the residual
// form just replaces a multiply, two minima and a subtraction per edge with
// one min and one max over precomputed values, which is also exactly the
// shape vmaxpd/vminpd want. Saturated members need no skip branch: their
// residual is ≤ 0 and the max clamps the term to exactly +0.0. The scalar
// backend is the reference: every vectorized backend must reproduce its
// gains bit-for-bit.

/// Saturated-coverage gains as flat state in structure-of-arrays form:
/// premultiplied residual capacity and self terms per member, plus — per edge
/// of the subproblem CSR — a neighbor column and a premultiplied edge-weight
/// column (pw[e] = fl(weight[u]·s_e), built once per reset), all in reusable
/// arena buffers. gain() is one call into the kernel_simd residual-gain
/// primitive (scalar/AVX2/NEON, bit-identical to each other); select()
/// decrements the residuals of the picked point and its local
/// neighbors in O(deg). The backend is captured at construction from
/// simd::active_backend().
class SaturatedCoverageIncrementalState final : public KernelIncrementalState {
 public:
  SaturatedCoverageIncrementalState(const graph::GroundSet& ground_set,
                                    SaturatedCoverageParams params,
                                    SubproblemArena& arena)
      : ground_set_(&ground_set),
        params_(params),
        arena_(&arena),
        ops_(&ksimd::active_ops()),
        resid_(arena.kernel_state_buffer(0)),
        pself_(arena.kernel_state_buffer(1)),
        weight_(arena.kernel_state_buffer(2)),
        pw_(arena.kernel_state_buffer(3)),
        nbr_(arena.kernel_index_buffer(0)) {}

  void reset(Subproblem& sub, const SelectionState* state,
             bool init_priorities) override {
    sub_ = &sub;
    const std::size_t n = sub.size();
    resid_.resize(n);
    pself_.resize(n);
    weight_.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      const double w = params_.utility_weighted
                           ? ground_set_->utility(sub.global_ids[i])
                           : 1.0;
      weight_[i] = w;
      pself_[i] = w * params_.self_similarity;
    }
    std::vector<graph::Edge>& scratch = arena_->edge_scratch();
    for (std::size_t i = 0; i < n; ++i) {
      const double w = weight_[i];
      double resid = w * params_.saturation;
      if (state != nullptr) {
        const NodeId v = sub.global_ids[i];
        for (const graph::Edge& e : ground_set_->neighbors_span(v, scratch)) {
          if (state->is_selected(e.neighbor)) {
            resid -= w * static_cast<double>(e.weight);
          }
        }
      }
      resid_[i] = resid;
    }
    // SoA edge pass (see FacilityLocationIncrementalState): neighbor column
    // + premultiplied-weight column for the vectorized gain loops.
    const std::size_t num_edges = sub.edges.size();
    nbr_.resize(num_edges);
    pw_.resize(num_edges);
    const Subproblem::LocalEdge* edges = sub.edges.data();
    for (std::size_t e = 0; e < num_edges; ++e) {
      const std::uint32_t u = edges[e].neighbor;
      nbr_[e] = u;
      pw_[e] = weight_[u] * static_cast<double>(edges[e].weight);
    }
    if (init_priorities) {
      sub.priorities.resize(n);
      for (std::uint32_t i = 0; i < n; ++i) sub.priorities[i] = gain_of(i);
    }
  }

  double gain(std::uint32_t v) const override { return gain_of(v); }

  void gains_batch(std::span<const std::uint32_t> candidates,
                   std::span<double> out) const override {
    constexpr std::size_t kLookahead = 2;
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      if (i + kLookahead < candidates.size()) {
        prefetch_slice(candidates[i + kLookahead]);
      }
      out[i] = gain_of(candidates[i]);
    }
  }

  void select(std::uint32_t v) override {
    resid_[v] -= pself_[v];
    const auto begin = static_cast<std::size_t>(sub_->offsets[v]);
    const auto end = static_cast<std::size_t>(sub_->offsets[v + 1]);
    for (std::size_t e = begin; e < end; ++e) resid_[nbr_[e]] -= pw_[e];
  }

  std::size_t state_bytes() const noexcept override {
    return (resid_.size() + pself_.size() + weight_.size() + pw_.size()) *
               sizeof(double) +
           nbr_.size() * sizeof(std::uint32_t);
  }

  const char* backend() const noexcept override { return ops_->name; }

 private:
  double gain_of(std::uint32_t v) const {
    const double self_term = std::min(pself_[v], std::max(resid_[v], 0.0));
    const auto begin = static_cast<std::size_t>(sub_->offsets[v]);
    const auto end = static_cast<std::size_t>(sub_->offsets[v + 1]);
    return ops_->resid_gain(nbr_.data() + begin, pw_.data() + begin, end - begin,
                            resid_.data(), self_term);
  }

  void prefetch_slice(std::uint32_t v) const {
    const auto begin = static_cast<std::size_t>(sub_->offsets[v]);
    const auto end = static_cast<std::size_t>(sub_->offsets[v + 1]);
    ksimd::prefetch_edge_slice(nbr_.data() + begin, pw_.data() + begin,
                               end - begin);
  }

  const graph::GroundSet* ground_set_;
  SaturatedCoverageParams params_;
  SubproblemArena* arena_;
  const ksimd::KernelSimdOps* ops_;
  const Subproblem* sub_ = nullptr;
  std::vector<double>& resid_;   // premultiplied residual capacity per member
  std::vector<double>& pself_;   // fl(weight · self_similarity) per member
  std::vector<double>& weight_;
  std::vector<double>& pw_;          // premultiplied edge weights (SoA)
  std::vector<std::uint32_t>& nbr_;  // edge neighbor column (SoA)
};

}  // namespace

void SaturatedCoverageParams::validate() const {
  if (!std::isfinite(saturation) || saturation <= 0.0) {
    throw std::invalid_argument(
        "SaturatedCoverageParams: saturation must be finite and > 0");
  }
  if (!std::isfinite(self_similarity) || self_similarity < 0.0) {
    throw std::invalid_argument(
        "SaturatedCoverageParams: self_similarity must be finite and >= 0");
  }
}

SaturatedCoverageKernel::SaturatedCoverageKernel(const graph::GroundSet& ground_set,
                                                 SaturatedCoverageParams params)
    : ground_set_(&ground_set), params_(params) {
  params_.validate();
}

double SaturatedCoverageKernel::mass_of(const std::vector<std::uint8_t>& membership,
                                        NodeId v,
                                        std::vector<graph::Edge>& scratch) const {
  double mass =
      membership[static_cast<std::size_t>(v)] != 0 ? params_.self_similarity : 0.0;
  for (const graph::Edge& e : ground_set_->neighbors_span(v, scratch)) {
    if (membership[static_cast<std::size_t>(e.neighbor)] != 0) mass += e.weight;
  }
  return mass;
}

double SaturatedCoverageKernel::evaluate(const std::vector<std::uint8_t>& membership,
                                         ThreadPool* pool) const {
  if (membership.size() != ground_set_->num_points()) {
    throw std::invalid_argument(
        "SaturatedCoverageKernel::evaluate: bitmap size mismatch");
  }
  const std::size_t n = membership.size();
  ThreadPool& workers = pool_or_global(pool);
  const std::size_t num_chunks = std::max<std::size_t>(1, workers.size() * 4);
  const std::size_t chunk = (n + num_chunks - 1) / num_chunks;
  std::vector<double> partial(num_chunks, 0.0);
  workers.parallel_for(num_chunks, [&](std::size_t c) {
    const std::size_t begin = c * chunk;
    const std::size_t end = std::min(n, begin + chunk);
    double sum = 0.0;
    std::vector<graph::Edge> scratch;
    for (std::size_t i = begin; i < end; ++i) {
      const auto v = static_cast<NodeId>(i);
      sum += point_weight(v) *
             std::min(params_.saturation, mass_of(membership, v, scratch));
    }
    partial[c] = sum;
  });
  double total = 0.0;
  for (double value : partial) total += value;
  return total;
}

double SaturatedCoverageKernel::marginal_gain(
    const std::vector<std::uint8_t>& membership, NodeId v) const {
  if (membership[static_cast<std::size_t>(v)] != 0) {
    throw std::invalid_argument(
        "SaturatedCoverageKernel::marginal_gain: v already in S");
  }
  const double tau = params_.saturation;
  std::vector<graph::Edge> scratch, inner_scratch;
  const double own_mass = mass_of(membership, v, scratch);
  double gain = point_weight(v) * (std::min(tau, own_mass + params_.self_similarity) -
                                   std::min(tau, own_mass));
  for (const graph::Edge& e : ground_set_->neighbors_span(v, scratch)) {
    const double mass = mass_of(membership, e.neighbor, inner_scratch);
    gain += point_weight(e.neighbor) *
            (std::min(tau, mass + static_cast<double>(e.weight)) -
             std::min(tau, mass));
  }
  return gain;
}

double SaturatedCoverageKernel::singleton_value(NodeId v) const {
  const double tau = params_.saturation;
  double total = point_weight(v) * std::min(tau, params_.self_similarity);
  std::vector<graph::Edge> scratch;
  for (const graph::Edge& e : ground_set_->neighbors_span(v, scratch)) {
    total += point_weight(e.neighbor) *
             std::min(tau, static_cast<double>(e.weight));
  }
  return total;
}

std::unique_ptr<KernelIncrementalState>
SaturatedCoverageKernel::make_incremental_state(SubproblemArena& arena) const {
  return std::make_unique<SaturatedCoverageIncrementalState>(*ground_set_, params_,
                                                             arena);
}

}  // namespace subsel::core
