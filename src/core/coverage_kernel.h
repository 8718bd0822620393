// Saturated (truncated) weighted coverage over the similarity graph:
//
//   f(S) = Σ_{v∈V} w(v) · min(τ, C_v(S)),
//   C_v(S) = σ_self·1[v∈S] + Σ_{s∈S∩N(v)} s(v,s),
//
// i.e. every point accumulates similarity mass from its selected neighbors
// (plus a self term when it is selected itself), but its contribution
// saturates at the threshold τ — once a point is "covered enough", more
// representatives of it add nothing. A concave function of a non-negative
// modular function, hence monotone submodular. τ interpolates between a
// modular objective (τ = ∞) and a cardinality-like coverage (τ small).
//
// Like facility location, the saturation makes marginal gains non-linear in
// the selected neighborhood, so there is no closed-form decrease-key;
// instead the kernel provides incremental state: a flat residual-capacity
// view (accumulated mass per element, residual = tau - mass) updated in
// O(deg(selected)) per pick. A candidate's gain is an O(deg) flat scan that
// skips already-saturated neighbors (residual 0 contributes exactly nothing),
// instead of the O(deg^2) exact oracle.
#pragma once

#include "core/objective_kernel.h"

namespace subsel::core {

struct SaturatedCoverageParams {
  /// The saturation threshold τ (> 0). Similarities in this repo live in
  /// (0, 1], so 1.0 ≈ "one strong or a few weak representatives suffice".
  double saturation = 1.0;
  /// The self-coverage mass a point receives when selected.
  double self_similarity = 1.0;
  /// Weight each point's covered mass by its utility u(v).
  bool utility_weighted = true;

  /// saturation must be > 0, self_similarity >= 0, both finite.
  void validate() const;
};

class SaturatedCoverageKernel final : public ObjectiveKernel {
 public:
  /// The ground set must outlive the kernel; throws on invalid params.
  SaturatedCoverageKernel(const graph::GroundSet& ground_set,
                          SaturatedCoverageParams params);

  std::string_view name() const noexcept override { return "saturated-coverage"; }
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
        fingerprint_mix(fingerprint_mix(0x5a7cULL, params_.saturation),
                        params_.self_similarity),
        static_cast<std::uint64_t>(params_.utility_weighted ? 1 : 0));
  }

  std::unique_ptr<KernelIncrementalState> make_incremental_state(
      SubproblemArena& arena) const override;

  const SaturatedCoverageParams& params() const noexcept { return params_; }

 private:
  double point_weight(NodeId v) const {
    return params_.utility_weighted ? ground_set_->utility(v) : 1.0;
  }
  /// C_v(S): v's accumulated (unsaturated) coverage mass under `membership`.
  double mass_of(const std::vector<std::uint8_t>& membership, NodeId v,
                 std::vector<graph::Edge>& scratch) const;

  const graph::GroundSet* ground_set_;
  SaturatedCoverageParams params_;
};

}  // namespace subsel::core
