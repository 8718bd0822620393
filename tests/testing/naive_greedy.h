// Algorithm 1 as written — every marginal gain recomputed every step, O(n·k)
// exact oracle calls — the ground truth the priority-queue, lazy and
// incremental-state greedies are held to. Ties break toward smaller ids,
// matching AddressableMaxHeap.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "core/greedy.h"
#include "core/objective.h"
#include "core/objective_kernel.h"

namespace subsel::testing {

/// Greedy over any kernel through its exact marginal_gain oracle.
inline core::GreedyResult naive_greedy(const core::ObjectiveKernel& kernel,
                                       std::size_t k) {
  const std::size_t n = kernel.ground_set().num_points();
  k = std::min(k, n);
  core::GreedyResult result;
  result.selected.reserve(k);

  std::vector<std::uint8_t> in_subset(n, 0);
  double total = 0.0;
  for (std::size_t step = 0; step < k; ++step) {
    double best_gain = -std::numeric_limits<double>::infinity();
    graph::NodeId best = -1;
    for (std::size_t i = 0; i < n; ++i) {
      if (in_subset[i] != 0) continue;
      const double gain = kernel.marginal_gain(in_subset, static_cast<graph::NodeId>(i));
      if (gain > best_gain) {  // strict: first maximizer wins = smallest id
        best_gain = gain;
        best = static_cast<graph::NodeId>(i);
      }
    }
    in_subset[static_cast<std::size_t>(best)] = 1;
    result.selected.push_back(best);
    total += best_gain;
  }
  result.objective = total;
  return result;
}

/// Greedy over the pairwise objective under `params`.
inline core::GreedyResult naive_greedy(const graph::GroundSet& ground_set,
                                       core::ObjectiveParams params, std::size_t k) {
  return naive_greedy(core::PairwiseKernel(ground_set, params), k);
}

}  // namespace subsel::testing
