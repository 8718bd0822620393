// One-at-a-time reference for the batched lazy driver in core/greedy.h, a
// plain loop over KernelIncrementalState::gain():
//
//   one_at_a_time_lazy_greedy — lazy greedy (Minoux) with one stale top
//     re-evaluated per step; the batched driver
//     core::incremental_greedy_on_subproblem differs only in its refresh
//     schedule, so selections and objectives must agree bit for bit.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

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

}  // namespace subsel::testing
