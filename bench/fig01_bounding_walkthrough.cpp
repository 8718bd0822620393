// Figure 1: step-by-step visualization of distributed bounding finding a
// 50 % subset of 6 data points. We build a 6-point instance, run grow/shrink
// passes one at a time, and print the Umin/Umax state after each — the same
// walk-through the paper draws.
#include <cstdio>

#include "bench_util.h"
#include "core/bounding.h"
#include "graph/ground_set.h"

using namespace subsel;

namespace {

void print_state(const core::SelectionState& state, const graph::GroundSet& ground_set,
                 core::ObjectiveParams params, const core::BoundingConfig& config,
                 std::uint64_t salt) {
  std::vector<double> u_min, u_max;
  core::detail::compute_utility_bounds(ground_set, params, state, config, salt, u_min,
                                       u_max);
  std::printf("  %-6s %-12s %-10s %-10s\n", "point", "state", "Umin", "Umax");
  for (std::size_t i = 0; i < state.size(); ++i) {
    const auto v = static_cast<core::NodeId>(i);
    const char* label = state.is_selected(v)    ? "selected"
                        : state.is_discarded(v) ? "discarded"
                                                : "unassigned";
    if (state.is_unassigned(v)) {
      std::printf("  %-6zu %-12s %-10.3f %-10.3f\n", i, label, u_min[i], u_max[i]);
    } else {
      std::printf("  %-6zu %-12s %-10s %-10s\n", i, label, "-", "-");
    }
  }
}

}  // namespace

int main() {
  std::printf("=== Figure 1: bounding walk-through (6 points, 50%% subset) ===\n");

  // Two tight pairs plus two independent points; utilities chosen so the
  // bounds make visible decisions in each pass.
  std::vector<graph::NeighborList> lists(6);
  lists[0].edges = {{1, 0.9f}};
  lists[2].edges = {{3, 0.8f}};
  auto graph = graph::SimilarityGraph::from_lists(lists).symmetrized();
  const std::vector<double> utilities{1.0, 0.95, 0.30, 0.25, 0.85, 0.05};
  graph::InMemoryGroundSet ground_set(graph, utilities);

  const core::ObjectiveParams params{0.5, 0.5};
  const core::BoundingConfig config;
  const std::size_t k = 3;

  core::SelectionState state(6);
  std::size_t k_remaining = k;
  std::uint64_t salt = 0;
  // Umax and the Grow window, which grow_step keeps current across passes;
  // S′ starts empty, so Umax = u.
  core::GrowState grow(utilities);

  std::printf("\ninitial bounds (k = %zu):\n", k_remaining);
  print_state(state, ground_set, params, config, 0);

  for (int pass = 1; pass <= 4 && k_remaining > 0; ++pass) {
    const std::size_t discarded =
        core::shrink_step(ground_set, params, state, k_remaining, config, ++salt);
    std::printf("\nshrink pass %d: discarded %zu point(s)\n", pass, discarded);
    const std::size_t grown =
        core::grow_step(ground_set, params, state, k_remaining, grow, config, ++salt);
    std::printf("grow pass %d: selected %zu point(s), k remaining %zu\n", pass, grown,
                k_remaining);
    print_state(state, ground_set, params, config, salt);
    if (discarded == 0 && grown == 0) break;
  }

  const auto result = core::bound(core::PairwiseKernel(ground_set, params), k, config);
  std::printf("\nfull Algorithm 5: included %zu, excluded %zu, grow/shrink rounds"
              " %zu/%zu, complete=%s\n",
              result.included, result.excluded, result.grow_rounds,
              result.shrink_rounds, result.complete() ? "yes" : "no");
  std::printf("paper shape: bounding alternates shrink/grow and settles high-utility"
              " points without any central subset store.\n");
  return 0;
}
