#include "core/objective_kernel.h"

#include <bit>

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

PairwiseKernel::PairwiseKernel(const graph::GroundSet& ground_set,
                               ObjectiveParams params)
    : ground_set_(&ground_set),
      params_(params),
      objective_(ground_set, params) {}  // the PairwiseObjective ctor validates

std::uint64_t PairwiseKernel::config_fingerprint() const noexcept {
  return fingerprint_mix(fingerprint_mix(0xcbf29ce484222325ULL, params_.alpha),
                         params_.beta);
}

}  // namespace subsel::core
