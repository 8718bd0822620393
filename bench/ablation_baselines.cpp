// Ablation: every selection algorithm in the repo on one workload — quality
// (normalized to centralized greedy = 100), wall time, and the peak number
// of elements a single machine must hold. This is the systems argument of
// Sections 1-2 in one table: the centralized/lazy/stochastic/threshold
// variants need the whole instance resident; SieveStreaming still needs the
// subset resident; GreeDi needs the m·k merge resident; only bounding + the
// multi-round distributed greedy keep every machine's footprint at
// O(|V|/m).
//
// Default --scale=0.2 (10k points), 10 % subset, alpha = 0.9.
#include "bench_util.h"

#include "baselines/baselines.h"
#include "baselines/streaming.h"
#include "core/bounding.h"
#include "core/selection_pipeline.h"

using namespace subsel;
using namespace subsel::bench;

int main(int argc, char** argv) {
  Args args(argc, argv);
  const double scale = args.get_double("scale", 0.2);
  const auto dataset = data::cifar_proxy(scale);
  const std::size_t n = dataset.size();
  const std::size_t k = n / 10;
  const auto params = core::ObjectiveParams::from_alpha(0.9);
  const auto ground_set = dataset.ground_set();
  const core::PairwiseKernel kernel(ground_set, params);
  const core::PairwiseObjective& objective = kernel.objective();

  std::printf("=== Ablation: selection algorithms (CIFAR proxy, %zu points,"
              " k=%zu, alpha=0.9) ===\n", n, k);
  std::printf("%-36s %8s %10s %16s\n", "algorithm", "score%", "time", "resident");

  CsvWriter csv(results_dir() + "/ablation_baselines.csv",
                {"algorithm", "objective", "score", "seconds", "resident_elements"});

  double centralized_objective = 0.0;
  const auto report = [&](const char* name, const std::vector<core::NodeId>& selected,
                          double seconds, std::size_t resident) {
    const double value = objective.evaluate(selected);
    if (centralized_objective == 0.0) centralized_objective = value;
    const double score = 100.0 * value / centralized_objective;
    std::printf("%-36s %7.2f%% %10s %16zu\n", name, score,
                format_duration(seconds).c_str(), resident);
    csv.row(name, value, score, seconds, resident);
  };

  Timer timer;
  const auto greedy =
      core::centralized_greedy(dataset.graph, dataset.utilities, params, k);
  report("centralized greedy (Alg. 2)", greedy.selected, timer.elapsed_seconds(), n);

  timer.reset();
  const auto lazy = baselines::lazy_greedy(kernel, k);
  report("lazy greedy (Minoux)", lazy.selected, timer.elapsed_seconds(), n);

  timer.reset();
  const auto stochastic = baselines::stochastic_greedy(kernel, k);
  report("stochastic greedy", stochastic.selected, timer.elapsed_seconds(), n);

  timer.reset();
  const auto threshold = baselines::threshold_greedy(kernel, k);
  report("threshold greedy", threshold.selected, timer.elapsed_seconds(), n);

  timer.reset();
  const auto sieve =
      baselines::sieve_streaming(kernel, k, baselines::SieveStreamingConfig{});
  report("SieveStreaming (1 pass)", sieve.selected, timer.elapsed_seconds(),
         sieve.peak_resident_elements);

  timer.reset();
  const auto sp =
      baselines::sample_and_prune(kernel, k, baselines::SamplePruneConfig{});
  report("SAMPLE&PRUNE (Kumar et al.)", sp.selected, timer.elapsed_seconds(),
         sp.peak_resident_elements);

  timer.reset();
  const auto kcenter =
      baselines::greedy_k_center(dataset.embeddings, kernel, k);
  report("greedy k-center (diversity only)", kcenter.selected,
         timer.elapsed_seconds(), n);

  timer.reset();
  baselines::GreeDiConfig greedi_config;
  greedi_config.num_machines = 8;
  const auto greedi = baselines::greedi(kernel, k, greedi_config);
  report("RandGreeDi (central merge)", greedi.selected, timer.elapsed_seconds(),
         std::max(n / 8, greedi.merge_candidates));

  timer.reset();
  core::SelectionPipelineConfig pipeline_config;
  pipeline_config.bounding.sampling = core::BoundingSampling::kUniform;
  pipeline_config.bounding.sample_fraction = 0.3;
  pipeline_config.greedy.num_machines = 8;
  pipeline_config.greedy.num_rounds = 8;
  const auto ours = core::select_subset(kernel, k, pipeline_config);
  std::size_t ours_resident = n / 8;  // per-partition ground-set share
  for (const auto& round : ours.greedy_rounds) {
    ours_resident = std::max(ours_resident,
                             round.peak_partition_bytes / (sizeof(core::NodeId) +
                                                           sizeof(double)));
  }
  report("bounding + multi-round (this paper)", ours.selected,
         timer.elapsed_seconds(), ours_resident);

  std::printf("\npaper shape: all methods land within a few percent of greedy;"
              " only the last row caps EVERY machine at a partition-sized"
              " footprint with no central merge.\n");
  return 0;
}
