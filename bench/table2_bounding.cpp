// Table 2: bounding results for alpha = 0.9 on CIFAR-100 and ImageNet, for
// subset sizes {10, 50, 80} % and bounding types {exact, 30 %/70 % uniform,
// 30 %/70 % weighted}. Reports included/excluded points, grow/shrink rounds,
// and the normalized score of bounding followed by centralized greedy
// completion (1 partition / 1 round), relative to plain centralized greedy.
//
// Expected shape (paper): exact bounding only decides for extreme subset
// sizes (excludes for 10 %, includes for 80 %, nothing at 50 %); 30 %
// sampling makes many more decisions (excluding ~half the set at 10 %,
// often completing the subset alone at 80 %); scores stay near (occasionally
// above) 100 %.
//
// Also reproduces the Section 6.2 finding that alpha in {0.5, 0.1} makes no
// decisions (run with --all-alphas).
#include "bench_util.h"
#include "core/bounding.h"
#include "core/selection_pipeline.h"

using namespace subsel;
using namespace subsel::bench;

namespace {

struct BoundingType {
  const char* name;
  core::BoundingSampling sampling;
  double fraction;
};

constexpr BoundingType kTypes[] = {
    {"exact (no sampling)", core::BoundingSampling::kNone, 1.0},
    {"30% uniform", core::BoundingSampling::kUniform, 0.3},
    {"70% uniform", core::BoundingSampling::kUniform, 0.7},
    {"30% weighted", core::BoundingSampling::kWeighted, 0.3},
    {"70% weighted", core::BoundingSampling::kWeighted, 0.7},
};

void run_dataset(const data::Dataset& dataset, double alpha, CsvWriter& csv) {
  const auto params = core::ObjectiveParams::from_alpha(alpha);
  std::printf("\n--- %s (%zu points), alpha=%.1f ---\n", dataset.name.c_str(),
              dataset.size(), alpha);
  std::printf("%-20s %-10s %10s %10s %6s %7s %9s\n", "type", "subset", "included",
              "excluded", "grow", "shrink", "score%");

  const auto ground_set = dataset.ground_set();
  const core::PairwiseKernel kernel(ground_set, params);
  for (const double fraction : {0.1, 0.5, 0.8}) {
    const auto k = static_cast<std::size_t>(fraction * dataset.size());
    const double centralized =
        core::centralized_greedy(dataset.graph, dataset.utilities, params, k)
            .objective;
    for (const BoundingType& type : kTypes) {
      core::SelectionPipelineConfig config;
      config.use_bounding = true;
      config.bounding.sampling = type.sampling;
      config.bounding.sample_fraction = type.fraction;
      config.greedy.num_machines = 1;  // Table 2 scores vs 1 partition/1 round
      config.greedy.num_rounds = 1;

      const auto result = core::select_subset(kernel, k, config);
      const auto& bounding = *result.bounding;
      const double score = centralized != 0.0
                               ? 100.0 * result.objective / centralized
                               : 100.0;
      std::printf("%-20s %-10.0f %10zu %10zu %6zu %7zu %8.2f%%\n", type.name,
                  fraction * 100, bounding.included, bounding.excluded,
                  bounding.grow_rounds, bounding.shrink_rounds, score);
      csv.row(dataset.name, alpha, fraction, type.name, bounding.included,
              bounding.excluded, bounding.grow_rounds, bounding.shrink_rounds,
              result.objective, centralized, score);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  Args args(argc, argv);
  const double scale = args.get_double("scale", 0.2);
  std::printf("=== Table 2: bounding results ===\n");

  CsvWriter csv(results_dir() + "/table2_bounding.csv",
                {"dataset", "alpha", "subset_fraction", "type", "included", "excluded",
                 "grow_rounds", "shrink_rounds", "objective", "centralized", "score"});

  const auto cifar = data::cifar_proxy(scale);
  const auto imagenet = data::imagenet_proxy(scale / 2.0);

  std::vector<double> alphas{0.9};
  if (args.has_flag("all-alphas")) alphas = {0.9, 0.5, 0.1};
  Timer timer;
  for (double alpha : alphas) {
    run_dataset(cifar, alpha, csv);
    run_dataset(imagenet, alpha, csv);
  }
  std::printf("\ntotal time: %s; csv: %s/table2_bounding.csv\n",
              format_duration(timer.elapsed_seconds()).c_str(), results_dir().c_str());
  return 0;
}
