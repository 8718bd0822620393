// Full-pass reference for bounding (Alg. 3–5): the oracle that
// core::bound's pruned Grow is held to.
//
// reference_grow_step is Alg. 3 as written: it computes both bounds for every
// unassigned point, takes U^k_max over all of them, and selects every point
// whose Uexp clears it. reference_bound runs the same Alg. 5 alternation,
// salt sequence, convergence detection and round caps as core::bound, with
// the library's Shrink (already a full pass) and this Grow.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <optional>
#include <sstream>
#include <span>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/topk.h"
#include "core/bounding.h"

namespace subsel::testing {

/// Called after every Grow or Shrink pass of reference_bound with the state
/// before the pass, the budget open before it, whether it was a Grow pass,
/// and the state after it.
using BoundingPassObserver =
    std::function<void(const core::SelectionState& before, std::size_t k_before,
                       bool grow, const core::SelectionState& after)>;

inline std::vector<double> unassigned_bound_values(const core::SelectionState& state,
                                                   const std::vector<double>& bounds) {
  std::vector<double> values;
  for (std::size_t i = 0; i < bounds.size(); ++i) {
    if (state.is_unassigned(static_cast<graph::NodeId>(i))) values.push_back(bounds[i]);
  }
  return values;
}

/// What differs between two bounding results, compared exactly: ids,
/// decision counts, round counts, open budget and the degraded flag.
inline std::optional<std::string> bounding_difference(const core::BoundingResult& got,
                                                      const core::BoundingResult& want) {
  std::ostringstream out;
  if (got.state.selected_ids() != want.state.selected_ids()) out << "selected ids; ";
  if (got.state.unassigned_ids() != want.state.unassigned_ids()) {
    out << "unassigned ids; ";
  }
  if (got.included != want.included) out << "included; ";
  if (got.excluded != want.excluded) out << "excluded; ";
  if (got.grow_rounds != want.grow_rounds) {
    out << "grow rounds " << got.grow_rounds << " vs " << want.grow_rounds << "; ";
  }
  if (got.shrink_rounds != want.shrink_rounds) {
    out << "shrink rounds " << got.shrink_rounds << " vs " << want.shrink_rounds
        << "; ";
  }
  if (got.k_remaining != want.k_remaining) out << "k_remaining; ";
  if (got.degraded != want.degraded) out << "degraded; ";
  if (out.str().empty()) return std::nullopt;
  return out.str();
}

/// One full-pass Grow (Alg. 3); returns #points selected.
inline std::size_t reference_grow_step(const graph::GroundSet& ground_set,
                                       core::ObjectiveParams params,
                                       core::SelectionState& state,
                                       std::size_t& k_remaining,
                                       const core::BoundingConfig& config,
                                       std::uint64_t round_salt) {
  if (k_remaining == 0) return 0;
  std::vector<double> u_min, u_max;
  core::detail::compute_utility_bounds(ground_set, params, state, config, round_salt,
                                       u_min, u_max);
  const double threshold =
      kth_largest(unassigned_bound_values(state, u_max), k_remaining);

  std::vector<graph::NodeId> candidates;
  for (std::size_t i = 0; i < u_min.size(); ++i) {
    const auto v = static_cast<graph::NodeId>(i);
    if (state.is_unassigned(v) && u_min[i] > threshold) candidates.push_back(v);
  }
  if (candidates.size() > k_remaining) {
    Rng rng(hash_combine(config.seed, round_salt ^ 0x6772ULL));
    rng.shuffle(std::span<graph::NodeId>(candidates));
    candidates.resize(k_remaining);
  }
  for (graph::NodeId v : candidates) state.select(v);
  k_remaining -= candidates.size();
  return candidates.size();
}

/// Alg. 5 with full-pass Grow: the same control flow as core::bound under a
/// PairwiseKernel(ground_set, params).
inline core::BoundingResult reference_bound(const graph::GroundSet& ground_set,
                                            core::ObjectiveParams params,
                                            std::size_t k,
                                            const core::BoundingConfig& config,
                                            const BoundingPassObserver& observe = {}) {
  const std::size_t n = ground_set.num_points();
  core::BoundingResult result;
  result.state = core::SelectionState(n);
  result.k_remaining = std::min(k, n);
  if (result.k_remaining == 0) return result;

  std::uint64_t salt = 0;
  std::size_t total_rounds = 0;
  bool first_pass = true;

  auto complete_if_tight = [&result]() {
    if (result.k_remaining == 0 ||
        result.state.num_unassigned() != result.k_remaining) {
      return false;
    }
    for (graph::NodeId v : result.state.unassigned_ids()) result.state.select(v);
    result.k_remaining = 0;
    return true;
  };
  auto out_of_time = [&result, &config]() {
    if (!config.deadline.expired()) return false;
    result.degraded = true;
    return true;
  };
  auto pass = [&](bool grow) {
    const core::SelectionState before = observe ? result.state : core::SelectionState();
    const std::size_t k_before = result.k_remaining;
    const std::size_t changed =
        grow ? reference_grow_step(ground_set, params, result.state,
                                   result.k_remaining, config, ++salt)
             : core::shrink_step(ground_set, params, result.state, result.k_remaining,
                                 config, ++salt);
    if (observe) observe(before, k_before, grow, result.state);
    return changed;
  };

  for (;;) {
    std::size_t shrink_changes = 0;
    for (;;) {
      if (out_of_time()) break;
      ++result.shrink_rounds;
      const std::size_t changed = pass(false);
      shrink_changes += changed;
      if (changed == 0 || ++total_rounds >= config.max_rounds) break;
    }
    if (complete_if_tight()) break;
    if (result.degraded) break;
    if (!first_pass && shrink_changes == 0) break;
    if (result.k_remaining == 0 || total_rounds >= config.max_rounds) break;

    std::size_t grow_changes = 0;
    for (;;) {
      if (out_of_time()) break;
      ++result.grow_rounds;
      const std::size_t changed = pass(true);
      grow_changes += changed;
      if (changed == 0 || result.k_remaining == 0 ||
          ++total_rounds >= config.max_rounds) {
        break;
      }
    }
    if (complete_if_tight()) break;
    if (result.degraded) break;
    if (grow_changes == 0 || result.k_remaining == 0 ||
        total_rounds >= config.max_rounds) {
      break;
    }
    first_pass = false;
  }

  result.included = result.state.num_selected();
  result.excluded = result.state.num_discarded();
  return result;
}

}  // namespace subsel::testing
