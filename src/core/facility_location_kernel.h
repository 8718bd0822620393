// Facility location over the similarity graph: max-based coverage.
//
//   f(S) = Σ_{v∈V} w(v) · max_{s∈S} σ(v,s),
//
// where σ(v,s) is the graph similarity s(v,s) for an edge (v,s), the
// self-similarity constant for s = v, and 0 otherwise; w(v) is the point's
// utility (weighted mode, the default — high-utility points demand to be
// represented) or 1. Every point is scored by its best selected
// representative, the classic exemplar/coreset objective (k-medoids'
// submodular cousin). Monotone and submodular for non-negative similarities.
//
// Marginal gains are NOT linear in the selected neighborhood (the max
// saturates), so there is no closed-form decrease-key; instead the kernel
// provides incremental state: flat best/second-best cover arrays per element,
// updated in O(deg(selected)) per pick, so a candidate's gain is an O(deg)
// flat scan instead of the O(deg^2) exact oracle. The second-best array rides
// along at one extra compare per update; it is what makes a future
// removal/swap (local-search) step O(deg) instead of a full recompute, and it
// is counted in state_bytes. The bounding pre-pass (pairwise Umin/Umax math)
// still does not apply.
#pragma once

#include "core/objective_kernel.h"

namespace subsel::core {

struct FacilityLocationParams {
  /// σ(v,v): how well a selected point covers itself. Graph similarities in
  /// this repo live in (0, 1], so 1 = "perfectly".
  double self_similarity = 1.0;
  /// Weight each point's coverage by its utility u(v); false weights every
  /// point equally.
  bool utility_weighted = true;

  /// self_similarity must be finite and >= 0.
  void validate() const;
};

class FacilityLocationKernel final : public ObjectiveKernel {
 public:
  /// The ground set must outlive the kernel; throws on invalid params.
  FacilityLocationKernel(const graph::GroundSet& ground_set,
                         FacilityLocationParams params);

  std::string_view name() const noexcept override { return "facility-location"; }
  ObjectiveKernelCaps caps() const noexcept override {
    return {/*linear_priority_updates=*/false, /*utility_bounds=*/false,
            /*distributed_scoring=*/false, /*monotone=*/true,
            /*simd_backend=*/simd::active_backend_name()};
  }
  const graph::GroundSet& ground_set() const noexcept override {
    return *ground_set_;
  }

  double evaluate(const std::vector<std::uint8_t>& membership,
                  ThreadPool* pool = nullptr) const override;
  using ObjectiveKernel::evaluate;

  double marginal_gain(const std::vector<std::uint8_t>& membership,
                       NodeId v) const override;

  double singleton_value(NodeId v) const override;

  std::uint64_t config_fingerprint() const noexcept override {
    return fingerprint_mix(
        fingerprint_mix(0xf1a0ULL, params_.self_similarity),
        static_cast<std::uint64_t>(params_.utility_weighted ? 1 : 0));
  }

  std::unique_ptr<KernelIncrementalState> make_incremental_state(
      SubproblemArena& arena) const override;

  const FacilityLocationParams& params() const noexcept { return params_; }

 private:
  double point_weight(NodeId v) const {
    return params_.utility_weighted ? ground_set_->utility(v) : 1.0;
  }
  /// Current coverage of v under `membership`: best σ(v, ·) over selected.
  double coverage_of(const std::vector<std::uint8_t>& membership, NodeId v,
                     std::vector<graph::Edge>& scratch) const;

  const graph::GroundSet* ground_set_;
  FacilityLocationParams params_;
};

}  // namespace subsel::core
