#include "core/facility_location_kernel.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/kernel_simd.h"

namespace subsel::core {
namespace {

ThreadPool& pool_or_global(ThreadPool* pool) {
  return pool != nullptr ? *pool : global_thread_pool();
}

// The incremental state works in PREMULTIPLIED coverage space: per member u
// it tracks wcover[u] = max over selected s of fl(weight[u] · σ(u,s)), and a
// candidate's gain is
//
//   max(0, fl(w_v·σ_self) − wcover[v]) + Σ_e max(0, fl(w_u·s_e) − wcover[u])
//
// with the edge sum in the lane-split order of core/kernel_simd.h. Because
// multiplication by the non-negative constant weight[u] is monotone (and so
// commutes with max exactly, rounding included), the premultiplied cover is
// exactly fl(weight·best-similarity) — the layout change moves the multiply
// out of the gain loop without changing which element wins any comparison.
// The scalar backend is the reference: every vectorized backend must
// reproduce its gains bit-for-bit.

/// Facility-location gains as flat state in structure-of-arrays form:
/// best/second-best premultiplied cover, premultiplied self terms, and — per
/// edge of the subproblem CSR — a neighbor column plus a premultiplied edge
/// weight column (pw[e] = fl(weight[u]·s_e), built once per reset), all in
/// reusable arena buffers. gain() is one call into the kernel_simd cover-gain
/// primitive (scalar/AVX2/NEON, bit-identical to each other); select()
/// raises the cover of the picked point and its local
/// neighbors in O(deg). The backend is captured at construction from
/// simd::active_backend().
class FacilityLocationIncrementalState final : public KernelIncrementalState {
 public:
  FacilityLocationIncrementalState(const graph::GroundSet& ground_set,
                                   FacilityLocationParams params,
                                   SubproblemArena& arena)
      : ground_set_(&ground_set),
        params_(params),
        arena_(&arena),
        ops_(&ksimd::active_ops()),
        wcover_(arena.kernel_state_buffer(0)),
        wcover2_(arena.kernel_state_buffer(1)),
        pself_(arena.kernel_state_buffer(2)),
        weight_(arena.kernel_state_buffer(3)),
        pw_(arena.kernel_state_buffer(4)),
        nbr_(arena.kernel_index_buffer(0)) {}

  void reset(Subproblem& sub, const SelectionState* state,
             bool init_priorities) override {
    sub_ = &sub;
    const std::size_t n = sub.size();
    wcover_.assign(n, 0.0);
    wcover2_.assign(n, 0.0);
    pself_.resize(n);
    weight_.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      const double w = params_.utility_weighted
                           ? ground_set_->utility(sub.global_ids[i])
                           : 1.0;
      weight_[i] = w;
      pself_[i] = w * params_.self_similarity;
    }
    if (state != nullptr) {
      std::vector<graph::Edge>& scratch = arena_->edge_scratch();
      for (std::size_t i = 0; i < n; ++i) {
        const NodeId v = sub.global_ids[i];
        const double w = weight_[i];
        double best = 0.0;
        double second = 0.0;
        for (const graph::Edge& e : ground_set_->neighbors_span(v, scratch)) {
          if (!state->is_selected(e.neighbor)) continue;
          const double pwv = w * static_cast<double>(e.weight);
          if (pwv > best) {
            second = best;
            best = pwv;
          } else if (pwv > second) {
            second = pwv;
          }
        }
        wcover_[i] = best;
        wcover2_[i] = second;
      }
    }
    // SoA edge pass: split the CSR's array-of-structs into a contiguous
    // neighbor column and a premultiplied-weight column — the layout the
    // vectorized gain loops load with one gather + one contiguous load.
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
    raise_cover(v, pself_[v]);
    const auto begin = static_cast<std::size_t>(sub_->offsets[v]);
    const auto end = static_cast<std::size_t>(sub_->offsets[v + 1]);
    for (std::size_t e = begin; e < end; ++e) raise_cover(nbr_[e], pw_[e]);
  }

  std::size_t state_bytes() const noexcept override {
    return (wcover_.size() + wcover2_.size() + pself_.size() + weight_.size() +
            pw_.size()) *
               sizeof(double) +
           nbr_.size() * sizeof(std::uint32_t);
  }

  const char* backend() const noexcept override { return ops_->name; }

 private:
  /// The gain expression above, with the edge loop dispatched to the backend
  /// bound at construction.
  double gain_of(std::uint32_t v) const {
    const double self_term = std::max(0.0, pself_[v] - wcover_[v]);
    const auto begin = static_cast<std::size_t>(sub_->offsets[v]);
    const auto end = static_cast<std::size_t>(sub_->offsets[v + 1]);
    return ops_->cover_gain(nbr_.data() + begin, pw_.data() + begin, end - begin,
                            wcover_.data(), self_term);
  }

  void prefetch_slice(std::uint32_t v) const {
    const auto begin = static_cast<std::size_t>(sub_->offsets[v]);
    const auto end = static_cast<std::size_t>(sub_->offsets[v + 1]);
    ksimd::prefetch_edge_slice(nbr_.data() + begin, pw_.data() + begin,
                               end - begin);
  }

  void raise_cover(std::uint32_t u, double value) {
    if (value > wcover_[u]) {
      wcover2_[u] = wcover_[u];
      wcover_[u] = value;
    } else if (value > wcover2_[u]) {
      wcover2_[u] = value;
    }
  }

  const graph::GroundSet* ground_set_;
  FacilityLocationParams params_;
  SubproblemArena* arena_;
  const ksimd::KernelSimdOps* ops_;
  const Subproblem* sub_ = nullptr;
  std::vector<double>& wcover_;   // best premultiplied similarity per member
  std::vector<double>& wcover2_;  // second best (O(deg) removal/swap support)
  std::vector<double>& pself_;    // fl(weight · self_similarity) per member
  std::vector<double>& weight_;
  std::vector<double>& pw_;            // premultiplied edge weights (SoA)
  std::vector<std::uint32_t>& nbr_;    // edge neighbor column (SoA)
};

}  // namespace

void FacilityLocationParams::validate() const {
  if (!std::isfinite(self_similarity) || self_similarity < 0.0) {
    throw std::invalid_argument(
        "FacilityLocationParams: self_similarity must be finite and >= 0");
  }
}

FacilityLocationKernel::FacilityLocationKernel(const graph::GroundSet& ground_set,
                                               FacilityLocationParams params)
    : ground_set_(&ground_set), params_(params) {
  params_.validate();
}

double FacilityLocationKernel::coverage_of(
    const std::vector<std::uint8_t>& membership, NodeId v,
    std::vector<graph::Edge>& scratch) const {
  double best =
      membership[static_cast<std::size_t>(v)] != 0 ? params_.self_similarity : 0.0;
  for (const graph::Edge& e : ground_set_->neighbors_span(v, scratch)) {
    if (membership[static_cast<std::size_t>(e.neighbor)] != 0) {
      best = std::max(best, static_cast<double>(e.weight));
    }
  }
  return best;
}

double FacilityLocationKernel::evaluate(const std::vector<std::uint8_t>& membership,
                                        ThreadPool* pool) const {
  if (membership.size() != ground_set_->num_points()) {
    throw std::invalid_argument(
        "FacilityLocationKernel::evaluate: bitmap size mismatch");
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
      sum += point_weight(v) * coverage_of(membership, v, scratch);
    }
    partial[c] = sum;
  });
  double total = 0.0;
  for (double value : partial) total += value;
  return total;
}

double FacilityLocationKernel::marginal_gain(
    const std::vector<std::uint8_t>& membership, NodeId v) const {
  if (membership[static_cast<std::size_t>(v)] != 0) {
    throw std::invalid_argument(
        "FacilityLocationKernel::marginal_gain: v already in S");
  }
  std::vector<graph::Edge> scratch, inner_scratch;
  // v's own coverage improves to at least self_similarity...
  double gain = point_weight(v) *
                std::max(0.0, params_.self_similarity -
                                  coverage_of(membership, v, scratch));
  // ...and every neighbor u is now covered at least as well as s(u,v).
  for (const graph::Edge& e : ground_set_->neighbors_span(v, scratch)) {
    const double improved = static_cast<double>(e.weight) -
                            coverage_of(membership, e.neighbor, inner_scratch);
    if (improved > 0.0) gain += point_weight(e.neighbor) * improved;
  }
  return gain;
}

double FacilityLocationKernel::singleton_value(NodeId v) const {
  double total = point_weight(v) * params_.self_similarity;
  std::vector<graph::Edge> scratch;
  for (const graph::Edge& e : ground_set_->neighbors_span(v, scratch)) {
    total += point_weight(e.neighbor) * static_cast<double>(e.weight);
  }
  return total;
}

std::unique_ptr<KernelIncrementalState>
FacilityLocationKernel::make_incremental_state(SubproblemArena& arena) const {
  return std::make_unique<FacilityLocationIncrementalState>(*ground_set_, params_,
                                                            arena);
}

}  // namespace subsel::core
