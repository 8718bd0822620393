// Table 3: worst-case partitioning ablation on CIFAR-100 (10 % subset,
// alpha = 0.9). Round 1 either partitions randomly or packs the whole
// centralized solution into one partition; scores for {1, 8, 16, 32} rounds,
// non-adaptive / adaptive, 10 partitions.
//
// Expected shape (paper): a one-round run loses ~17 points under worst-case
// packing, but with >= 8 rounds the penalty shrinks to a few points — the
// multi-round algorithm is robust to adversarial initial assignment.
#include "bench_util.h"

using namespace subsel;
using namespace subsel::bench;

namespace {

double run_once(const data::Dataset& dataset, std::size_t k, std::size_t rounds,
                bool adaptive, const std::vector<core::NodeId>* forced,
                std::uint64_t seed) {
  core::DistributedGreedyConfig config;
  config.num_machines = 10;  // the paper's setup: 10 partitions for a 10 % subset
  config.num_rounds = rounds;
  config.adaptive_partitioning = adaptive;
  config.seed = seed;
  if (forced != nullptr) config.forced_first_partition = *forced;
  const auto ground_set = dataset.ground_set();
  const core::PairwiseKernel kernel(ground_set, core::ObjectiveParams::from_alpha(0.9));
  return core::distributed_greedy(kernel, k, config).objective;
}

}  // namespace

int main(int argc, char** argv) {
  Args args(argc, argv);
  const double scale = args.get_double("scale", 0.2);
  const std::size_t trials = args.get_size("trials", 3);
  const auto dataset = data::cifar_proxy(scale);
  const auto k = static_cast<std::size_t>(0.1 * dataset.size());
  std::printf("=== Table 3: worst-case partitioning (CIFAR proxy, %zu points, k=%zu)"
              " ===\n", dataset.size(), k);

  const auto params = core::ObjectiveParams::from_alpha(0.9);
  auto centralized =
      core::centralized_greedy(dataset.graph, dataset.utilities, params, k);
  std::sort(centralized.selected.begin(), centralized.selected.end());

  const std::vector<std::size_t> round_axis{1, 8, 16, 32};
  CsvWriter csv(results_dir() + "/table3_worstcase.csv",
                {"partitioning", "rounds", "adaptive", "objective", "normalized"});

  // Collect all objectives first for the shared normalization group.
  struct Cell {
    bool worst;
    std::size_t rounds;
    bool adaptive;
    double objective;
  };
  std::vector<Cell> cells;
  std::vector<double> observed;
  Timer timer;
  for (const bool worst : {false, true}) {
    for (const std::size_t rounds : round_axis) {
      for (const bool adaptive : {false, true}) {
        double total = 0.0;
        for (std::size_t trial = 0; trial < trials; ++trial) {
          total += run_once(dataset, k, rounds, adaptive,
                            worst ? &centralized.selected : nullptr,
                            91 + trial * 37 + rounds);
        }
        const double objective = total / static_cast<double>(trials);
        cells.push_back({worst, rounds, adaptive, objective});
        observed.push_back(objective);
      }
    }
  }

  core::ScoreNormalizer normalizer(centralized.objective, observed);
  std::printf("%-26s", "partitioning");
  for (std::size_t rounds : round_axis) std::printf("  %zu rounds (na/ad)", rounds);
  std::printf("\n");
  for (const bool worst : {false, true}) {
    std::printf("%-26s", worst ? "solution in one partition" : "random partitioning");
    for (const std::size_t rounds : round_axis) {
      double non_adaptive = 0.0, adaptive = 0.0;
      for (const Cell& cell : cells) {
        if (cell.worst == worst && cell.rounds == rounds) {
          (cell.adaptive ? adaptive : non_adaptive) = cell.objective;
        }
      }
      std::printf("      %3.0f%% / %3.0f%%", normalizer.normalize(non_adaptive),
                  normalizer.normalize(adaptive));
    }
    std::printf("\n");
  }
  for (const Cell& cell : cells) {
    csv.row(cell.worst ? "worst_case" : "random", cell.rounds, cell.adaptive ? 1 : 0,
            cell.objective, normalizer.normalize(cell.objective));
  }
  std::printf("\ntotal time: %s; csv: %s/table3_worstcase.csv\n",
              format_duration(timer.elapsed_seconds()).c_str(), results_dir().c_str());
  return 0;
}
