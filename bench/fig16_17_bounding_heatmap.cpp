// Figures 16 and 17 (Appendix G): normalized scores of bounding followed by
// the adaptive distributed greedy, for the five bounding configurations
// {regular (none), 30 %/70 % uniform, 30 %/70 % weighted}, subset sizes
// {10, 50, 80} %, α = 0.9, partitions x rounds ∈ {1..32}², on the CIFAR-100
// (Fig. 16) and ImageNet (Fig. 17) proxies.
//
// Expected shape (paper): 30 % sampling shifts the whole 10 %-subset heatmap
// up (half the ground set is pre-excluded, so partitions hurt less); when
// bounding completes the subset on its own (50 %/80 % with aggressive
// sampling) the heatmap is CONSTANT — the greedy has nothing left to do —
// at a score slightly below or above 100.
//
// Normalization is per parameter group (dataset, α, subset size) across all
// five configurations, centralized greedy = 100, minimum observed = 0.
#include <optional>

#include "bench_util.h"
#include "core/bounding.h"

using namespace subsel;
using namespace subsel::bench;

namespace {

struct BoundingType {
  const char* name;
  core::BoundingSampling sampling;
  double fraction;
};

constexpr BoundingType kTypes[] = {
    {"regular", core::BoundingSampling::kNone, 0.0},  // no bounding pre-pass
    {"uniform (30%)", core::BoundingSampling::kUniform, 0.3},
    {"uniform (70%)", core::BoundingSampling::kUniform, 0.7},
    {"weighted (30%)", core::BoundingSampling::kWeighted, 0.3},
    {"weighted (70%)", core::BoundingSampling::kWeighted, 0.7},
};

using Grid = std::vector<std::vector<double>>;

/// Raw objectives for one bounding type over the partitions x rounds grid.
Grid run_grid(const data::Dataset& dataset, std::size_t k, const BoundingType& type,
              std::vector<double>& observed) {
  const auto params = core::ObjectiveParams::from_alpha(0.9);
  const auto ground_set = dataset.ground_set();
  const core::PairwiseKernel kernel(ground_set, params);
  const auto axis = paper_axis();

  std::optional<core::BoundingResult> bounding;
  if (type.fraction > 0.0) {  // "regular" (fraction 0) skips the pre-pass
    core::BoundingConfig config;
    config.sampling = type.sampling;
    config.sample_fraction = type.fraction;
    bounding = core::bound(kernel, k, config);
  }

  Grid grid(axis.size(), std::vector<double>(axis.size()));
  if (bounding.has_value() && bounding->complete()) {
    // Bounding solved the instance; every cell evaluates the same subset.
    const double value =
        kernel.objective().evaluate(bounding->state.selected_ids());
    for (auto& row : grid) {
      for (double& cell : row) cell = value;
    }
    observed.push_back(value);
    return grid;
  }

  for (std::size_t p = 0; p < axis.size(); ++p) {
    for (std::size_t r = 0; r < axis.size(); ++r) {
      core::DistributedGreedyConfig config;
      config.num_machines = axis[p];
      config.num_rounds = axis[r];
      config.adaptive_partitioning = true;
      config.seed = 31 + 1000 * p + r;
      const auto run = core::distributed_greedy(
          kernel, k, config, bounding.has_value() ? &bounding->state : nullptr);
      grid[p][r] = run.objective;
      observed.push_back(run.objective);
    }
  }
  return grid;
}

void run_dataset(const data::Dataset& dataset, CsvWriter& csv) {
  const auto params = core::ObjectiveParams::from_alpha(0.9);
  const auto axis = paper_axis();
  for (const double fraction : {0.1, 0.5, 0.8}) {
    const auto k = static_cast<std::size_t>(fraction * dataset.size());
    const double centralized =
        core::centralized_greedy(dataset.graph, dataset.utilities, params, k)
            .objective;

    std::vector<double> observed;
    std::vector<Grid> grids;
    grids.reserve(std::size(kTypes));
    for (const BoundingType& type : kTypes) {
      grids.push_back(run_grid(dataset, k, type, observed));
    }

    const core::ScoreNormalizer normalizer(centralized, observed);
    for (std::size_t t = 0; t < std::size(kTypes); ++t) {
      char title[160];
      std::snprintf(title, sizeof(title), "%s, %.0f%% subset, %s (adaptive)",
                    dataset.name.c_str(), fraction * 100, kTypes[t].name);
      HeatmapSpec spec;  // axes only, for printing
      std::printf("\n%s\n", title);
      std::printf("%10s", "part\\rnd");
      for (std::size_t rounds : spec.rounds) std::printf("%7zu", rounds);
      std::printf("\n");
      for (std::size_t p = 0; p < axis.size(); ++p) {
        std::printf("%10zu", axis[p]);
        for (std::size_t r = 0; r < axis.size(); ++r) {
          const double score = normalizer.normalize(grids[t][p][r]);
          std::printf("%7.0f", score);
          csv.row(dataset.name, 0.9, fraction, 1, kTypes[t].name, axis[p], axis[r],
                  grids[t][p][r], score, centralized);
        }
        std::printf("\n");
      }
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  Args args(argc, argv);
  const double cifar_scale = args.get_double("scale", 0.1);
  std::printf("=== Figures 16/17: heatmaps with bounding pre-pass ===\n");

  CsvWriter csv(results_dir() + "/fig16_17_bounding_heatmap.csv",
                {"dataset", "alpha", "subset_fraction", "adaptive", "bounding",
                 "partitions", "rounds", "objective", "normalized", "centralized"});

  Timer timer;
  const auto cifar = data::cifar_proxy(cifar_scale);
  run_dataset(cifar, csv);
  const auto imagenet = data::imagenet_proxy(cifar_scale / 2.0);
  run_dataset(imagenet, csv);

  std::printf("\ntotal time: %s; csv: %s/fig16_17_bounding_heatmap.csv\n",
              format_duration(timer.elapsed_seconds()).c_str(), results_dir().c_str());
  return 0;
}
