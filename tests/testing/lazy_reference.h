// One-at-a-time references for the two incremental-state drivers in
// core/greedy.h, each a plain loop over KernelIncrementalState::gain():
//
//   one_at_a_time_lazy_greedy    — lazy greedy (Minoux) with one stale top
//     re-evaluated per step; the batched driver
//     core::incremental_greedy_on_subproblem differs only in its refresh
//     schedule, so selections and objectives must agree bit for bit.
//   one_at_a_time_sampled_greedy — stochastic greedy: the same Rng draw per
//     step, each sampled candidate's gain() read singly, argmax with the
//     smallest local id winning ties, then select; the gains_batch driver
//     core::stochastic_greedy_on_subproblem must agree bit for bit.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/addressable_heap.h"
#include "core/greedy.h"
#include "core/objective_kernel.h"

namespace subsel::testing {

/// Selects min(k, |sub|) points. `state` must already be reset() on `sub`
/// (the initial gains are read from sub.priorities).
inline core::GreedyResult one_at_a_time_lazy_greedy(
    const core::Subproblem& sub, std::size_t k,
    core::KernelIncrementalState& state) {
  const std::size_t n = sub.size();
  k = std::min(k, n);
  core::GreedyResult result;
  core::AddressableMaxHeap heap(sub.priorities);
  // version[v] = |selection| when v's heap priority was last computed; the
  // top of the heap is only trusted when its gain is fresh.
  std::vector<std::uint32_t> version(n, 0);
  while (result.selected.size() < k && !heap.empty()) {
    const auto top = heap.peek();
    const auto selection_size = static_cast<std::uint32_t>(result.selected.size());
    if (version[top] == selection_size) {
      heap.pop_max();
      result.objective += heap.priority(top);
      result.selected.push_back(sub.global_ids[top]);
      state.select(top);
      continue;
    }
    version[top] = selection_size;
    heap.update(top, state.gain(top));
  }
  return result;
}

/// Selects min(k, |sub|) points, drawing ceil(n/k * log(1/epsilon)) live
/// candidates per step (at least one) with a partial Fisher-Yates over the
/// live list. `state` must already be reset() on `sub`.
inline core::GreedyResult one_at_a_time_sampled_greedy(
    const core::Subproblem& sub, std::size_t k,
    core::KernelIncrementalState& state, double epsilon, std::uint64_t seed) {
  const std::size_t n = sub.size();
  k = std::min(k, n);
  core::GreedyResult result;
  if (k == 0) return result;
  std::vector<std::uint32_t> live(n);
  for (std::uint32_t i = 0; i < n; ++i) live[i] = i;
  const std::size_t sample_size = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::ceil(static_cast<double>(n) /
                                            static_cast<double>(k) *
                                            std::log(1.0 / epsilon))));
  Rng rng(seed);
  while (result.selected.size() < k) {
    const std::size_t live_count = live.size();
    const std::size_t draw = std::min(sample_size, live_count);
    for (std::size_t i = 0; i < draw; ++i) {
      const std::size_t j =
          i + static_cast<std::size_t>(rng.uniform_index(live_count - i));
      std::swap(live[i], live[j]);
    }
    std::size_t best_slot = 0;
    double best_gain = state.gain(live[0]);
    for (std::size_t i = 1; i < draw; ++i) {
      const double gain = state.gain(live[i]);
      if (gain > best_gain || (gain == best_gain && live[i] < live[best_slot])) {
        best_slot = i;
        best_gain = gain;
      }
    }
    const std::uint32_t pick = live[best_slot];
    result.objective += best_gain;
    result.selected.push_back(sub.global_ids[pick]);
    state.select(pick);
    live[best_slot] = live.back();
    live.pop_back();
  }
  return result;
}

}  // namespace subsel::testing
