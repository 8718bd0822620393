// Section 5 ("Implementing bounding and scoring"): empirical analysis of
// the dataflow configurations. Sweeps the shard ("machine") count for the
// join-based bounding and scoring pipelines and reports wall time plus the
// peak per-shard working set — the quantity a real worker's DRAM must
// cover. Also verifies the engine under progressively tighter per-worker
// budgets: the peak shrinks roughly like 1/shards, so the same pipeline
// runs on "machines" a fraction of the instance's size.
//
// Expected shape: the in-memory reference is faster (no shuffles) but needs
// the whole instance resident; the dataflow path trades constant-factor
// time for a per-worker footprint that falls as shards grow.
#include "bench_util.h"

#include "beam/beam_pipeline.h"
#include "beam/beam_scoring.h"
#include "core/bounding.h"

using namespace subsel;
using namespace subsel::bench;

int main(int argc, char** argv) {
  Args args(argc, argv);
  const double scale = args.get_double("scale", 0.2);
  const auto dataset = data::cifar_proxy(scale);
  const std::size_t n = dataset.size();
  const std::size_t k = n / 10;
  const auto ground_set = dataset.ground_set();
  const auto params = core::ObjectiveParams::from_alpha(0.9);
  const core::PairwiseKernel kernel(ground_set, params);

  core::BoundingConfig bounding_config;
  bounding_config.sampling = core::BoundingSampling::kUniform;
  bounding_config.sample_fraction = 0.3;

  std::printf("=== Section 5: dataflow configuration analysis (CIFAR proxy,"
              " %zu points, k=%zu) ===\n", n, k);

  CsvWriter csv(results_dir() + "/sec5_dataflow_scaling.csv",
                {"stage", "shards", "seconds", "peak_shard_bytes", "value"});

  // Reference: in-memory bounding (whole instance resident on one machine).
  Timer timer;
  const auto reference = core::bound(kernel, k, bounding_config);
  const double reference_seconds = timer.elapsed_seconds();
  std::printf("\n%-28s %8s %12s %16s\n", "stage", "shards", "time", "peak/shard");
  std::printf("%-28s %8s %12s %16s\n", "in-memory bounding", "-",
              format_duration(reference_seconds).c_str(), "whole instance");
  csv.row("inmemory_bound", 1, reference_seconds, 0, reference.included);

  for (const std::size_t shards : {std::size_t{4}, std::size_t{16}, std::size_t{64},
                                   std::size_t{256}}) {
    dataflow::PipelineOptions options;
    options.num_shards = shards;
    dataflow::Pipeline pipeline(options);
    timer.reset();
    const auto bounding = beam::beam_bound(pipeline, kernel, k, bounding_config);
    const double seconds = timer.elapsed_seconds();
    std::printf("%-28s %8zu %12s %13.1f KB\n", "dataflow bounding", shards,
                format_duration(seconds).c_str(),
                static_cast<double>(pipeline.peak_shard_bytes()) / 1e3);
    csv.row("beam_bound", shards, seconds, pipeline.peak_shard_bytes(),
            bounding.included);
    if (bounding.included != reference.included ||
        bounding.excluded != reference.excluded) {
      std::printf("  WARNING: decisions diverged from the in-memory reference\n");
    }
  }

  // Scoring sweep (same join plan, one pass).
  std::vector<core::NodeId> subset;
  for (core::NodeId v = 0; v < static_cast<core::NodeId>(n); v += 10) {
    subset.push_back(v);
  }
  timer.reset();
  const double in_memory_score = kernel.objective().evaluate(subset);
  std::printf("%-28s %8s %12s %16s\n", "in-memory scoring", "-",
              format_duration(timer.elapsed_seconds()).c_str(), "whole instance");
  for (const std::size_t shards : {std::size_t{16}, std::size_t{256}}) {
    dataflow::PipelineOptions options;
    options.num_shards = shards;
    dataflow::Pipeline pipeline(options);
    timer.reset();
    const double score = beam::beam_score(pipeline, ground_set, subset, params);
    const double seconds = timer.elapsed_seconds();
    std::printf("%-28s %8zu %12s %13.1f KB\n", "dataflow scoring", shards,
                format_duration(seconds).c_str(),
                static_cast<double>(pipeline.peak_shard_bytes()) / 1e3);
    csv.row("beam_score", shards, seconds, pipeline.peak_shard_bytes(), score);
    if (std::abs(score - in_memory_score) > 1e-6 * std::abs(in_memory_score)) {
      std::printf("  WARNING: score diverged (%.6f vs %.6f)\n", score,
                  in_memory_score);
    }
  }

  // Tight budgets: find how little per-worker DRAM still completes the full
  // end-to-end selection at 256 shards.
  std::printf("\nend-to-end selection under per-worker budgets (256 shards):\n");
  core::SelectionPipelineConfig pipeline_config;
  pipeline_config.bounding = bounding_config;
  pipeline_config.greedy.num_machines = 16;
  pipeline_config.greedy.num_rounds = 4;
  for (const std::size_t budget_kb : {std::size_t{0}, std::size_t{1024},
                                      std::size_t{256}, std::size_t{64}}) {
    dataflow::PipelineOptions options;
    options.num_shards = 256;
    options.worker_memory_bytes = budget_kb * 1024;
    dataflow::Pipeline pipeline(options);
    timer.reset();
    try {
      const auto result =
          beam::beam_select_subset(pipeline, kernel, k, pipeline_config);
      std::printf("  budget %6zu KB: f(S)=%.2f, peak %7.1f KB, %s\n",
                  budget_kb, result.objective,
                  static_cast<double>(pipeline.peak_shard_bytes()) / 1e3,
                  format_duration(timer.elapsed_seconds()).c_str());
      csv.row("budget_run", 256, timer.elapsed_seconds(),
              pipeline.peak_shard_bytes(), result.objective);
    } catch (const dataflow::PipelineMemoryError& e) {
      std::printf("  budget %6zu KB: infeasible (a shard needed %zu bytes)\n",
                  budget_kb, e.needed_bytes);
      csv.row("budget_run", 256, 0.0, e.needed_bytes, -1.0);
    }
  }

  std::printf("\npaper shape: decisions identical across configurations; the"
              " per-shard peak falls with the shard count, which is what lets"
              " the same pipeline run on small machines.\n");
  return 0;
}
