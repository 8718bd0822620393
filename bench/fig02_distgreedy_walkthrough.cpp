// Figure 2: the distributed greedy algorithm finding a subset of size 3 out
// of 10 points using 2 rounds with 3 partitions. We print each round's
// partitioning, per-partition selections, and the union.
#include <cstdio>

#include "bench_util.h"
#include "core/distributed_greedy.h"

using namespace subsel;

int main() {
  std::printf("=== Figure 2: distributed greedy walk-through"
              " (10 points, k=3, 2 rounds, 3 partitions) ===\n");

  // A ring of 10 points with mixed utilities.
  std::vector<graph::NeighborList> lists(10);
  for (int i = 0; i < 10; ++i) {
    lists[i].edges.push_back({(i + 1) % 10, 0.5f});
  }
  auto graph = graph::SimilarityGraph::from_lists(lists).symmetrized();
  std::vector<double> utilities{0.9, 0.2, 0.7, 0.4, 0.8, 0.1, 0.6, 0.3, 0.95, 0.5};
  graph::InMemoryGroundSet ground_set(graph, utilities);

  const core::ObjectiveParams params{0.9, 0.1};
  core::DistributedGreedyConfig config;
  config.num_machines = 3;
  config.num_rounds = 2;
  config.adaptive_partitioning = false;
  config.seed = 4;

  const auto result =
      core::distributed_greedy(core::PairwiseKernel(ground_set, params), 3, config);
  for (const auto& round : result.rounds) {
    std::printf("round %zu: |V_in|=%zu, target=%zu, partitions=%zu, |V_out|=%zu\n",
                round.round, round.input_size, round.target_size,
                round.num_partitions, round.output_size);
  }
  std::printf("selected subset:");
  for (auto v : result.selected) std::printf(" %lld", static_cast<long long>(v));
  std::printf("\nobjective f(S) = %.4f\n", result.objective);

  const auto centralized =
      core::centralized_greedy(graph, utilities, params, 3);
  std::printf("centralized greedy objective = %.4f\n", centralized.objective);
  std::printf("paper shape: per-round partition -> per-partition greedy -> union,"
              " no centralized merge.\n");
  return 0;
}
