// Shared harness for the figure/table reproduction benches.
//
// Every bench binary:
//  - accepts --scale=<f> (or env SUBSEL_SCALE) to shrink/grow the workload;
//    defaults are chosen so the whole bench/ directory completes in minutes
//    on a multicore server, while --scale=1 (and scale=10 for the ImageNet
//    proxy) reaches the paper's cardinalities;
//  - prints paper-style rows/heatmaps to stdout;
//  - mirrors the raw numbers to bench_results/<name>.csv.
// Benches that write a BENCH_*.json stamp it with write_manifest().
#pragma once

#include <malloc.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/csv.h"
#include "common/json.h"
#include "common/log.h"
#include "common/simd.h"
#include "common/timer.h"
#include "core/distributed_greedy.h"
#include "core/greedy.h"
#include "core/normalization.h"
#include "data/datasets.h"

namespace subsel::bench {

/// Parses --scale / --flag=value style arguments and SUBSEL_SCALE.
class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) values_.emplace_back(argv[i]);
  }

  double get_double(const std::string& name, double fallback) const {
    const std::string prefix = "--" + name + "=";
    for (const auto& arg : values_) {
      if (arg.rfind(prefix, 0) == 0) return std::atof(arg.c_str() + prefix.size());
    }
    if (name == "scale") {
      if (const char* env = std::getenv("SUBSEL_SCALE")) return std::atof(env);
    }
    return fallback;
  }

  std::size_t get_size(const std::string& name, std::size_t fallback) const {
    return static_cast<std::size_t>(
        get_double(name, static_cast<double>(fallback)));
  }

  std::string get_string(const std::string& name,
                         const std::string& fallback) const {
    const std::string prefix = "--" + name + "=";
    for (const auto& arg : values_) {
      if (arg.rfind(prefix, 0) == 0) return arg.substr(prefix.size());
    }
    return fallback;
  }

  bool has_flag(const std::string& name) const {
    const std::string flag = "--" + name;
    for (const auto& arg : values_) {
      if (arg == flag) return true;
    }
    return false;
  }

 private:
  std::vector<std::string> values_;
};

#ifndef SUBSEL_BUILD_TYPE
#define SUBSEL_BUILD_TYPE "unknown"
#endif
#ifndef SUBSEL_CXX_FLAGS
#define SUBSEL_CXX_FLAGS "unknown"
#endif

/// The checkout the bench runs from: `git describe --always --dirty` in the
/// working directory, else "unknown".
inline std::string source_commit() {
  std::string commit;
  if (std::FILE* pipe =
          ::popen("git describe --always --dirty --abbrev=12 2>/dev/null", "r")) {
    char buffer[128];
    while (std::fgets(buffer, sizeof(buffer), pipe) != nullptr) commit += buffer;
    ::pclose(pipe);
  }
  while (!commit.empty() && (commit.back() == '\n' || commit.back() == '\r')) {
    commit.pop_back();
  }
  return commit.empty() ? "unknown" : commit;
}

/// The M_MMAP_THRESHOLD set by pin_mmap_threshold(); 0 while glibc still
/// adjusts it dynamically.
inline int& pinned_mmap_threshold() {
  static int bytes = 0;
  return bytes;
}

/// glibc raises its mmap threshold each time a large mmapped block is freed,
/// so whether a timed leg's big buffers arrive as fresh mmaps or as recycled,
/// already-faulted heap would depend on what ran before it. Pinning the
/// threshold at glibc's initial default (128 KiB) keeps each leg's time
/// independent of leg order. Call first thing in main; the manifest records
/// the pinned value.
inline void pin_mmap_threshold() {
  constexpr int kBytes = 128 * 1024;
  if (mallopt(M_MMAP_THRESHOLD, kBytes) == 1) pinned_mmap_threshold() = kBytes;
}

/// The reproducibility manifest of a BENCH_*.json: which code (commit), built
/// how (compiler, build type, flags), run where (core count, detected and
/// active SIMD backend, allocator mmap threshold) and at what `scale` (the
/// harness's own size knobs). Numbers from different manifests are not
/// comparable.
inline void write_manifest(JsonWriter& json, const std::string& scale) {
  json.key("manifest").begin_object();
  json.key("commit").value(source_commit());
#if defined(__clang__)
  json.key("compiler").value("clang " __clang_version__);
#elif defined(__GNUC__)
  json.key("compiler").value("gcc " __VERSION__);
#else
  json.key("compiler").value("unknown");
#endif
  json.key("build_type").value(SUBSEL_BUILD_TYPE);
  json.key("build_flags").value(SUBSEL_CXX_FLAGS);
  json.key("cores").value(
      static_cast<std::size_t>(std::thread::hardware_concurrency()));
  json.key("simd_detected").value(simd::backend_name(simd::detected_backend()));
  json.key("simd_active").value(simd::active_backend_name());
  const int mmap_threshold = pinned_mmap_threshold();
  json.key("mmap_threshold").value(
      mmap_threshold > 0 ? "pinned " + std::to_string(mmap_threshold)
                         : std::string("dynamic"));
  json.key("scale").value(scale);
  json.end_object();
}

/// Writes `json` plus a newline to `path`; 0 on success, 1 (with a message)
/// when the file cannot be written.
inline int write_json(const std::string& path, const JsonWriter& json) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  std::fprintf(out, "%s\n", json.str().c_str());
  const bool ok = std::fclose(out) == 0;
  if (!ok) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", path.c_str());
  return 0;
}

inline std::string results_dir() {
  const char* env = std::getenv("SUBSEL_RESULTS_DIR");
  const std::string dir = env != nullptr ? env : "bench_results";
  ensure_directory(dir);
  return dir;
}

/// The paper's partition/round axes: {1, 2, 4, 8, 16, 32}.
inline std::vector<std::size_t> paper_axis() { return {1, 2, 4, 8, 16, 32}; }

struct HeatmapSpec {
  const data::Dataset* dataset = nullptr;
  double alpha = 0.9;
  double subset_fraction = 0.1;
  bool adaptive = false;
  double delta_gamma = 0.75;
  std::vector<std::size_t> partitions = paper_axis();
  std::vector<std::size_t> rounds = paper_axis();
  std::uint64_t seed = 17;
};

struct HeatmapResult {
  /// scores[p][r]: raw objective for partitions[p] x rounds[r].
  std::vector<std::vector<double>> objectives;
  std::vector<std::vector<double>> normalized;
  double centralized_objective = 0.0;
};

/// Runs the partitions x rounds grid of Algorithm 6 for one parameter group
/// and normalizes as in Section 6 (centralized = 100, min observed = 0).
inline HeatmapResult run_heatmap(const HeatmapSpec& spec) {
  const auto params = core::ObjectiveParams::from_alpha(spec.alpha);
  const auto& dataset = *spec.dataset;
  const std::size_t k = static_cast<std::size_t>(
      spec.subset_fraction * static_cast<double>(dataset.size()));
  const auto ground_set = dataset.ground_set();
  const core::PairwiseKernel kernel(ground_set, params);

  HeatmapResult result;
  result.centralized_objective =
      core::centralized_greedy(dataset.graph, dataset.utilities, params, k).objective;

  std::vector<double> observed;
  result.objectives.resize(spec.partitions.size());
  for (std::size_t p = 0; p < spec.partitions.size(); ++p) {
    result.objectives[p].resize(spec.rounds.size());
    for (std::size_t r = 0; r < spec.rounds.size(); ++r) {
      core::DistributedGreedyConfig config;
      config.num_machines = spec.partitions[p];
      config.num_rounds = spec.rounds[r];
      config.adaptive_partitioning = spec.adaptive;
      config.delta_gamma = spec.delta_gamma;
      config.seed = spec.seed + 1000 * p + r;
      const auto run = core::distributed_greedy(kernel, k, config);
      result.objectives[p][r] = run.objective;
      observed.push_back(run.objective);
    }
  }

  core::ScoreNormalizer normalizer(result.centralized_objective, observed);
  result.normalized.resize(spec.partitions.size());
  for (std::size_t p = 0; p < spec.partitions.size(); ++p) {
    result.normalized[p].resize(spec.rounds.size());
    for (std::size_t r = 0; r < spec.rounds.size(); ++r) {
      result.normalized[p][r] = normalizer.normalize(result.objectives[p][r]);
    }
  }
  return result;
}

/// Prints a heatmap in the paper's orientation: rows = partitions (top = 1),
/// columns = rounds (left = 1).
inline void print_heatmap(const char* title, const HeatmapSpec& spec,
                          const std::vector<std::vector<double>>& values) {
  std::printf("\n%s\n", title);
  std::printf("%10s", "part\\rnd");
  for (std::size_t rounds : spec.rounds) std::printf("%7zu", rounds);
  std::printf("\n");
  for (std::size_t p = 0; p < spec.partitions.size(); ++p) {
    std::printf("%10zu", spec.partitions[p]);
    for (std::size_t r = 0; r < spec.rounds.size(); ++r) {
      std::printf("%7.0f", values[p][r]);
    }
    std::printf("\n");
  }
}

/// Writes a heatmap group to CSV (one row per cell).
inline void heatmap_to_csv(CsvWriter& csv, const std::string& dataset,
                           const HeatmapSpec& spec, const HeatmapResult& result) {
  for (std::size_t p = 0; p < spec.partitions.size(); ++p) {
    for (std::size_t r = 0; r < spec.rounds.size(); ++r) {
      csv.row(dataset, spec.alpha, spec.subset_fraction, spec.adaptive ? 1 : 0,
              spec.delta_gamma, spec.partitions[p], spec.rounds[r],
              result.objectives[p][r], result.normalized[p][r],
              result.centralized_objective);
    }
  }
}

inline const std::initializer_list<std::string_view> kHeatmapCsvHeader = {
    "dataset", "alpha",  "subset_fraction", "adaptive",   "gamma",
    "partitions", "rounds", "objective",       "normalized", "centralized"};

/// Prints a signed difference heatmap (Appendix E orientation), decimal
/// places truncated as in the paper's plots.
inline void print_diff_heatmap(const char* title, const HeatmapSpec& spec,
                               const std::vector<std::vector<double>>& variant,
                               const std::vector<std::vector<double>>& baseline) {
  std::printf("\n%s\n", title);
  std::printf("%10s", "part\\rnd");
  for (std::size_t rounds : spec.rounds) std::printf("%7zu", rounds);
  std::printf("\n");
  for (std::size_t p = 0; p < spec.partitions.size(); ++p) {
    std::printf("%10zu", spec.partitions[p]);
    for (std::size_t r = 0; r < spec.rounds.size(); ++r) {
      std::printf("%7.0f", std::trunc(variant[p][r] - baseline[p][r]));
    }
    std::printf("\n");
  }
}

/// Appendix E: Δ-factor ablation. Runs the partitions x rounds grid for
/// γ ∈ {0.75 (baseline), 1, 0.5, 0.25}, subsets {10, 50} %, α ∈ {.9,.5,.1},
/// non-adaptive (adaptive is biased toward small γ, Sec. Appendix E), and
/// prints the difference-to-baseline heatmaps of Figures 6-11.
inline void run_delta_ablation(const data::Dataset& dataset, CsvWriter& csv) {
  for (const double fraction : {0.1, 0.5}) {
    for (const double alpha : {0.9, 0.5, 0.1}) {
      HeatmapSpec base_spec;
      base_spec.dataset = &dataset;
      base_spec.alpha = alpha;
      base_spec.subset_fraction = fraction;
      base_spec.adaptive = false;
      base_spec.delta_gamma = 0.75;
      const auto baseline = run_heatmap(base_spec);
      heatmap_to_csv(csv, dataset.name, base_spec, baseline);

      for (const double gamma : {1.0, 0.5, 0.25}) {
        HeatmapSpec spec = base_spec;
        spec.delta_gamma = gamma;
        const auto variant = run_heatmap(spec);
        heatmap_to_csv(csv, dataset.name, spec, variant);
        char title[160];
        std::snprintf(title, sizeof(title),
                      "%.0f%% subset, alpha=%.1f: normalized score of gamma=%.2f"
                      " minus gamma=0.75",
                      fraction * 100, alpha, gamma);
        print_diff_heatmap(title, spec, variant.normalized, baseline.normalized);
      }
    }
  }
}

}  // namespace subsel::bench
