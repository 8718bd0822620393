// subsel — command-line front end for the selection library.
//
//   subsel generate   --type=cifar|imagenet|toy --scale=0.1 --out=data/cifar
//   subsel info       --data=data/cifar
//   subsel solvers
//   subsel objectives
//   subsel select     --data=data/cifar --fraction=0.1 --alpha=0.9
//                     --solver=pipeline [--objective=NAME] [--machines=8]
//                     [--rounds=8] [--no-adaptive] [--disk]
//                     [--bounding=none|exact|uniform|weighted] [--sample=0.3]
//                     [--saturation=1.0] [--self-sim=1.0] [--unweighted]
//                     [--cost-file=F --cost-budget=B]
//                     [--group-file=F --group-cap=N]
//                     [--report=FILE] --out=subset.ids
//   subsel score      --data=data/cifar --subset=subset.ids --alpha=0.9
//                     [--objective=NAME] [--distributed]
//   subsel serve      --socket=PATH --data=[NAME=]PREFIX [--data=... ...]
//                     [--disk] [--cache-blocks=N] [--block-edges=N]
//                     [--disk-shards=N] [--queue-capacity=N]
//                     [--max-concurrent=N] [--threads=N]
//                     [--default-deadline-ms=N] [--max-request-bytes=N]
//                     [--cost-file=F] [--group-file=F]
//
// `serve` runs the long-lived selection daemon: every --data dataset is
// loaded once and stays resident (in memory, or behind the out-of-core
// block cache with --disk) while concurrent clients send newline-delimited
// JSON selection requests over the Unix socket (protocol: src/serve/wire.h,
// README "Serving"). SIGTERM/SIGINT drain gracefully: in-flight requests
// finish or degrade, new ones are rejected with reason "draining".
//
// Every solver in the registry (see `subsel solvers`) runs through the same
// SelectionRequest/SelectionReport schema, under any registered objective
// (see `subsel objectives` for the solver×objective support rules);
// --report writes the full JSON report. Datasets are the binary format of
// data/dataset_io.h; subsets are plain one-id-per-line text files.
//
// Robustness controls (see README "Robustness"):
//   --deadline-ms=N       wall-clock budget; expired runs return the best
//                         valid selection so far, flagged "degraded"
//   --checkpoint-file=F   crash-consistent round checkpoints; a rerun with
//                         the same F and configuration resumes from F
//   --checkpoint-every=N  save every Nth round (default 1)
//   --failpoints=SPEC     arm deterministic fault injection, e.g.
//                         "disk.pread=prob(0.01,7);pool.task=nth(3)"
//                         (SUBSEL_FAILPOINTS env var works too)
//
// Exit codes (each failure class is distinguishable by scripts):
//   0  success
//   1  usage or validation error (bad flags, bad request, bad failpoint spec)
//   2  generic runtime failure
//   3  disk/data format or I/O error (graph::DiskFormatError)
//   4  deadline expired with no feasible selection (degraded run, empty S)
//   5  worker task failure surfaced at a join point (TaskError / injected
//      fault that exhausted its handling path)
#include <csignal>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "api/objective_registry.h"
#include "api/solver_registry.h"
#include "beam/beam_scoring.h"
#include "common/failpoint.h"
#include "common/simd.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "data/dataset_io.h"
#include "data/datasets.h"
#include "graph/disk_ground_set.h"
#include "serve/server.h"
#include "serve/socket_server.h"

namespace {

using namespace subsel;

/// --name=value / --name flag accessor over argv. Numeric accessors validate
/// that the whole value parses (strtod/strtoull full-consume) — a malformed
/// `--fraction=0.1x` or `--machines=abc` is a usage error, never a silent 0.
/// Every lookup records the flag name, and reject_unread() fails on any
/// --flag the subcommand never looked up, so a typo or a retired flag is a
/// usage error instead of a silent run with defaults.
class CliArgs {
 public:
  CliArgs(int argc, char** argv) : argc_(argc), argv_(argv) {}

  std::optional<std::string> get(const std::string& name) const {
    read_.insert(name);
    const std::string prefix = "--" + name + "=";
    for (int i = 2; i < argc_; ++i) {
      if (std::strncmp(argv_[i], prefix.c_str(), prefix.size()) == 0) {
        return std::string(argv_[i] + prefix.size());
      }
    }
    return std::nullopt;
  }

  std::string require(const std::string& name) const {
    auto value = get(name);
    if (!value.has_value()) {
      throw std::invalid_argument("missing required --" + name + "=...");
    }
    return *value;
  }

  double get_double(const std::string& name, double fallback) const {
    auto value = get(name);
    if (!value.has_value()) return fallback;
    errno = 0;
    char* end = nullptr;
    const double parsed = std::strtod(value->c_str(), &end);
    if (end == value->c_str() || *end != '\0' || errno == ERANGE) {
      throw std::invalid_argument("--" + name + "=" + *value +
                                  " is not a valid number");
    }
    return parsed;
  }

  std::size_t get_size(const std::string& name, std::size_t fallback) const {
    auto value = get(name);
    if (!value.has_value()) return fallback;
    // strtoull accepts "-1" by wrapping; reject any sign explicitly.
    const char* text = value->c_str();
    errno = 0;
    char* end = nullptr;
    const unsigned long long parsed = std::strtoull(text, &end, 10);
    if (end == text || *end != '\0' || errno == ERANGE || text[0] == '-' ||
        text[0] == '+') {
      throw std::invalid_argument("--" + name + "=" + *value +
                                  " is not a valid non-negative integer");
    }
    return static_cast<std::size_t>(parsed);
  }

  /// Every occurrence of --name=value, in argv order (for repeatable flags
  /// like serve's --data).
  std::vector<std::string> get_all(const std::string& name) const {
    read_.insert(name);
    const std::string prefix = "--" + name + "=";
    std::vector<std::string> values;
    for (int i = 2; i < argc_; ++i) {
      if (std::strncmp(argv_[i], prefix.c_str(), prefix.size()) == 0) {
        values.emplace_back(argv_[i] + prefix.size());
      }
    }
    return values;
  }

  bool has_flag(const std::string& name) const {
    read_.insert(name);
    const std::string flag = "--" + name;
    for (int i = 2; i < argc_; ++i) {
      if (flag == argv_[i]) return true;
    }
    return false;
  }

  /// Throws std::invalid_argument (exit 1) naming the first --flag that
  /// `subsel <command>` has not looked up. Call once all flags are read and
  /// before any work starts.
  void reject_unread(const std::string& command) const {
    for (int i = 2; i < argc_; ++i) {
      const std::string arg = argv_[i];
      if (arg.rfind("--", 0) != 0) continue;
      if (read_.count(arg.substr(2, arg.find('=') - 2)) == 0) {
        throw std::invalid_argument("flag " + arg + " is not used by `subsel " +
                                    command + "`");
      }
    }
  }

 private:
  int argc_;
  char** argv_;
  mutable std::set<std::string> read_;
};

int usage() {
  std::fprintf(stderr,
               "usage: subsel <command> [options]\n"
               "  generate   --type=cifar|imagenet|toy --out=PREFIX [--scale=F]"
               " [--seed=N]\n"
               "  info       --data=PREFIX\n"
               "  solvers                            list registered solvers\n"
               "  objectives                         list registered objectives\n"
               "  select     --data=PREFIX (--k=N | --fraction=F)"
               " [--objective=NAME]\n"
               "             [--alpha=F] [--saturation=F] [--self-sim=F]"
               " [--unweighted]\n"
               "             [--solver=NAME] [--machines=N] [--rounds=N]"
               " [--no-adaptive]\n"
               "             [--bounding=none|exact|uniform|weighted]"
               " [--sample=F]\n"
               "             [--epsilon=F] [--shards=N] [--disk]"
               " [--cache-blocks=N]\n"
               "             [--block-edges=N] [--disk-shards=N]"
               " [--prefetch-depth=N]\n"
               "             [--worker-memory-kb=N] [--seed=N] [--report=FILE]\n"
               "             [--deadline-ms=N] [--checkpoint-file=F]"
               " [--checkpoint-every=N]\n"
               "             [--failpoints=SPEC]\n"
               "             [--cost-file=F --cost-budget=B]"
               " [--group-file=F --group-cap=N]\n"
               "             --out=FILE\n"
               "  score      --data=PREFIX --subset=FILE [--objective=NAME]"
               " [--alpha=F]\n"
               "             [--distributed]\n"
               "  serve      --socket=PATH --data=[NAME=]PREFIX [--data=...]"
               " [--disk]\n"
               "             [--cache-blocks=N] [--block-edges=N]"
               " [--disk-shards=N]\n"
               "             [--queue-capacity=N] [--max-concurrent=N]"
               " [--threads=N]\n"
               "             [--default-deadline-ms=N]"
               " [--max-request-bytes=N]\n"
               "             [--cost-file=F] [--group-file=F]\n");
  return 1;
}

int cmd_generate(const CliArgs& args) {
  const std::string type = args.require("type");
  const std::string out = args.require("out");
  const double scale = args.get_double("scale", 0.1);
  const auto seed = static_cast<std::uint64_t>(args.get_size("seed", 42));
  const std::size_t toy_points = args.get_size("points", 2000);
  const std::size_t toy_classes = args.get_size("classes", 10);
  args.reject_unread("generate");

  data::Dataset dataset;
  if (type == "cifar") {
    dataset = data::cifar_proxy(scale, seed);
  } else if (type == "imagenet") {
    dataset = data::imagenet_proxy(scale, seed);
  } else if (type == "toy") {
    dataset = data::toy_dataset(toy_points, toy_classes, seed);
  } else {
    std::fprintf(stderr, "unknown --type=%s (cifar|imagenet|toy)\n", type.c_str());
    return 1;
  }
  data::save_dataset(dataset, out);
  std::printf("wrote %zu points (%zu-d, avg degree %.1f) to %s[.graph]\n",
              dataset.size(), dataset.embeddings.dim(),
              dataset.graph.average_degree(), out.c_str());
  return 0;
}

int cmd_info(const CliArgs& args) {
  const std::string data_path = args.require("data");
  args.reject_unread("info");
  const auto dataset = data::load_dataset(data_path);
  double min_utility = dataset.utilities.empty() ? 0.0 : dataset.utilities[0];
  double max_utility = min_utility;
  for (double u : dataset.utilities) {
    min_utility = std::min(min_utility, u);
    max_utility = std::max(max_utility, u);
  }
  std::uint32_t num_classes = 0;
  for (std::uint32_t label : dataset.labels) {
    num_classes = std::max(num_classes, label + 1);
  }
  std::printf("dataset:    %s\n", dataset.name.c_str());
  std::printf("points:     %zu\n", dataset.size());
  std::printf("dimensions: %zu\n", dataset.embeddings.dim());
  std::printf("classes:    %u\n", num_classes);
  std::printf("avg degree: %.2f\n", dataset.graph.average_degree());
  std::printf("utilities:  [%.4f, %.4f]\n", min_utility, max_utility);
  return 0;
}

int cmd_solvers(const CliArgs& args) {
  args.reject_unread("solvers");
  const auto solvers = api::SolverRegistry::instance().list();
  std::printf("kernel backend: %s (detected: %s)\n\n",
              subsel::simd::active_backend_name(),
              subsel::simd::backend_name(subsel::simd::detected_backend()));
  std::printf("%zu registered solvers:\n\n", solvers.size());
  for (const auto& info : solvers) {
    std::string flags;
    if (info.caps.distributed) flags += " distributed";
    if (info.caps.streaming) flags += " streaming";
    if (!info.caps.needs_full_graph) flags += " no-full-graph";
    if (info.caps.cancellable) flags += " cancellable";
    if (info.caps.checkpointable) flags += " checkpointable";
    if (info.caps.constrained) flags += " constrained";
    if (flags.empty()) flags = " centralized";
    std::printf("%-20s guarantee: %-28s memory: %s\n", info.name.c_str(),
                info.guarantee.c_str(), info.memory_regime.c_str());
    std::printf("%-20s flags:%s\n", "", flags.c_str());
    std::printf("%-20s %s\n\n", "", info.description.c_str());
  }
  return 0;
}

int cmd_objectives(const CliArgs& args) {
  args.reject_unread("objectives");
  const auto objectives = api::ObjectiveRegistry::instance().list();
  const auto solvers = api::SolverRegistry::instance().list();
  std::printf("kernel backend: %s\n\n", subsel::simd::active_backend_name());
  std::printf("%zu registered objectives:\n\n", objectives.size());
  for (const auto& info : objectives) {
    std::string flags;
    if (info.caps.linear_priority_updates) flags += " closed-form-updates";
    else flags += " lazy-gain-path";
    if (info.caps.utility_bounds) flags += " utility-bounds";
    if (info.caps.distributed_scoring) flags += " distributed-scoring";
    if (info.caps.monotone) flags += " monotone";
    std::printf("%-20s %s\n", info.name.c_str(), info.formula.c_str());
    std::printf("%-20s flags:%s\n", "", flags.c_str());
    std::printf("%-20s %s\n", "", info.description.c_str());

    // Per-solver support, derived from the same rule request validation
    // applies: fully supported / supported once bounding is disabled /
    // unsupported.
    std::string supported, bounding_off, unsupported;
    for (const auto& solver : solvers) {
      const bool with_bounding =
          api::incompatibility_reason(solver.caps, info.caps, true).empty();
      const bool without_bounding =
          api::incompatibility_reason(solver.caps, info.caps, false).empty();
      auto append = [&solver](std::string& list) {
        if (!list.empty()) list += ", ";
        list += solver.name;
      };
      if (with_bounding) append(supported);
      else if (without_bounding) append(bounding_off);
      else append(unsupported);
    }
    if (!supported.empty()) {
      std::printf("%-20s solvers: %s\n", "", supported.c_str());
    }
    if (!bounding_off.empty()) {
      std::printf("%-20s with --bounding=none: %s\n", "", bounding_off.c_str());
    }
    if (!unsupported.empty()) {
      std::printf("%-20s unsupported: %s\n", "", unsupported.c_str());
    }
    std::printf("\n");
  }
  return 0;
}

int cmd_select(const CliArgs& args) {
  const std::string data_path = args.require("data");
  const std::string out = args.require("out");
  const std::optional<std::string> report_path = args.get("report");

  // --disk keeps the adjacency on disk behind a sharded LRU block cache;
  // only the per-point scalars are loaded. Default materializes the whole
  // dataset. --disk-shards stripes the cache locks (1 = the old single
  // mutex); --prefetch-depth controls how far ahead of the solve loop the
  // round plans are paged in.
  const bool disk = args.has_flag("disk");
  graph::DiskGroundSetConfig cache;
  cache.max_cached_blocks = args.get_size("cache-blocks", 64);
  cache.block_edges = args.get_size("block-edges", cache.block_edges);
  cache.num_shards = args.get_size("disk-shards", cache.num_shards);

  api::SelectionRequest request;
  request.k = args.get_size("k", 0);
  request.fraction = args.get_double("fraction", 0.0);
  request.objective_name = args.get("objective").value_or("pairwise");
  request.objective = core::ObjectiveParams::from_alpha(args.get_double("alpha", 0.9));
  request.facility_location.self_similarity = args.get_double("self-sim", 1.0);
  request.facility_location.utility_weighted = !args.has_flag("unweighted");
  request.coverage.saturation = args.get_double("saturation", 1.0);
  request.coverage.self_similarity = args.get_double("self-sim", 1.0);
  request.coverage.utility_weighted = !args.has_flag("unweighted");
  request.seed = static_cast<std::uint64_t>(args.get_size("seed", 23));
  request.solver = args.get("solver").value_or("pipeline");

  request.deadline_ms =
      static_cast<std::uint64_t>(args.get_size("deadline-ms", 0));
  request.distributed.num_machines = args.get_size("machines", 8);
  request.distributed.num_rounds = args.get_size("rounds", 8);
  request.distributed.adaptive_partitioning = !args.has_flag("no-adaptive");
  request.distributed.prefetch_depth = args.get_size("prefetch-depth", 2);
  request.distributed.checkpoint_file = args.get("checkpoint-file").value_or("");
  request.distributed.checkpoint_every = args.get_size("checkpoint-every", 1);
  request.bounding.prefetch_depth = request.distributed.prefetch_depth;
  request.streaming.epsilon = args.get_double("epsilon", 0.1);

  // Selection constraints: one-value-per-line sidecar files (line i =
  // element i). Consistency (sizes, budget present, caps cover groups) is
  // validated by the registry before dispatch.
  const std::optional<std::string> cost_file = args.get("cost-file");
  request.constraints.cost_budget = args.get_double("cost-budget", 0.0);
  const std::optional<std::string> group_file = args.get("group-file");
  request.constraints.group_cap = args.get_size("group-cap", 0);
  const std::optional<std::string> bounding_flag = args.get("bounding");
  request.bounding.sample_fraction = args.get_double("sample", 0.3);
  request.dataflow.num_shards = args.get_size("shards", 64);
  request.dataflow.worker_memory_bytes =
      args.get_size("worker-memory-kb", 0) * 1024;
  args.reject_unread("select");

  if (cost_file.has_value()) {
    request.constraints.costs = data::load_value_file(*cost_file, "cost");
  }
  if (group_file.has_value()) {
    request.constraints.groups = data::load_group_file(*group_file);
  }
  // Constraints compose with every solver except the bounding pre-pass and
  // the dataflow substrate; default bounding off on constrained runs unless
  // the user pinned it, so `--solver=pipeline --cost-budget=...` just works.
  if (request.constraints.any() && !bounding_flag.has_value()) {
    request.bounding.enabled = false;
  }

  const std::string bounding = bounding_flag.value_or("uniform");
  if (bounding == "none") {
    request.bounding.enabled = false;
  } else if (bounding == "exact") {
    request.bounding.sampling = core::BoundingSampling::kNone;
  } else if (bounding == "uniform") {
    request.bounding.sampling = core::BoundingSampling::kUniform;
  } else if (bounding == "weighted") {
    request.bounding.sampling = core::BoundingSampling::kWeighted;
  } else {
    std::fprintf(stderr, "unknown --bounding=%s\n", bounding.c_str());
    return 1;
  }

  data::Dataset dataset;
  std::unique_ptr<graph::GroundSet> disk_ground_set;
  if (disk) {
    auto scalars = data::load_dataset_scalars(data_path);
    disk_ground_set = std::make_unique<graph::DiskGroundSet>(
        data_path + ".graph", std::move(scalars.utilities), cache);
  } else {
    dataset = data::load_dataset(data_path);
  }
  const auto in_memory_ground_set =
      disk ? graph::InMemoryGroundSet(dataset.graph, dataset.utilities)
           : dataset.ground_set();
  const graph::GroundSet& ground_set =
      disk ? *disk_ground_set
           : static_cast<const graph::GroundSet&>(in_memory_ground_set);
  request.ground_set = &ground_set;

  const api::SelectionReport report = api::select(request);
  data::save_subset(report.selected, out);

  std::printf("solver %s: selected %zu / %zu points in %s -> %s\n",
              report.solver.c_str(), report.selected.size(), report.num_points,
              format_duration(report.total_seconds).c_str(), out.c_str());
  std::printf("objective %s: f(S) = %.6f\n", report.objective_name.c_str(),
              report.objective);
  if (report.constraints.has_value()) {
    const auto& summary = *report.constraints;
    std::printf("constraints: feasible=%s", summary.feasible ? "yes" : "NO");
    if (summary.cost_budget > 0.0) {
      std::printf(", cost %.4f / budget %.4f", summary.selected_cost,
                  summary.cost_budget);
    }
    if (summary.num_groups > 0) {
      std::printf(", %zu capped groups", summary.num_groups);
    }
    if (summary.num_blocked > 0) {
      std::printf(", %zu blocked ids", summary.num_blocked);
    }
    std::printf("\n");
  }
  if (report.bounding.has_value()) {
    std::printf("bounding: included %zu, excluded %zu (%zu grow / %zu shrink"
                " rounds)\n",
                report.bounding->included, report.bounding->excluded,
                report.bounding->grow_rounds, report.bounding->shrink_rounds);
  }
  if (!report.rounds.empty()) {
    std::printf("greedy rounds: %zu (peak partition %.2f MB)\n",
                report.rounds.size(),
                static_cast<double>(report.peak_partition_bytes) / 1e6);
  }
  if (report.disk_cache.has_value()) {
    const auto& cache = *report.disk_cache;
    const double accesses = static_cast<double>(cache.hits + cache.misses);
    std::printf("disk cache: %zu shards, %.1f%% hit rate (%llu hits, %llu"
                " misses), %llu/%llu blocks prefetched, peak %zu/%zu blocks"
                " resident\n",
                cache.num_shards,
                accesses > 0.0 ? 100.0 * static_cast<double>(cache.hits) / accesses
                               : 0.0,
                static_cast<unsigned long long>(cache.hits),
                static_cast<unsigned long long>(cache.misses),
                static_cast<unsigned long long>(cache.prefetch_loaded),
                static_cast<unsigned long long>(cache.prefetch_issued),
                cache.resident_blocks_high_water, cache.max_cached_blocks);
    if (cache.read_retries > 0 || cache.prefetch_degraded > 0) {
      std::printf("disk faults: %llu transient read retries, %llu prefetch"
                  " blocks degraded to demand misses\n",
                  static_cast<unsigned long long>(cache.read_retries),
                  static_cast<unsigned long long>(cache.prefetch_degraded));
    }
  }
  if (report.preempted) std::printf("run preempted before completion\n");
  if (report.degraded) {
    std::printf("run degraded: %s\n", report.degraded_reason.c_str());
  }

  if (report_path.has_value()) {
    std::ofstream report_file(*report_path, std::ios::trunc);
    report_file << report.to_json() << '\n';
    report_file.close();  // flush before checking, or buffered errors hide
    if (!report_file) {
      std::fprintf(stderr, "cannot write --report=%s\n", report_path->c_str());
      return 2;
    }
    std::printf("report written to %s\n", report_path->c_str());
  }
  // A degraded run that still produced a selection is a (qualified) success;
  // one that produced nothing within the deadline is its own failure class.
  if (report.degraded && report.selected.empty() && report.k_requested > 0) {
    std::fprintf(stderr,
                 "deadline expired before any selection was feasible\n");
    return 4;
  }
  return 0;
}

int cmd_score(const CliArgs& args) {
  const std::string data_path = args.require("data");
  const std::string subset_path = args.require("subset");
  const auto params =
      core::ObjectiveParams::from_alpha(args.get_double("alpha", 0.9));

  // Build the scoring kernel through the registry, like `select` does.
  api::SelectionRequest request;
  request.objective_name = args.get("objective").value_or("pairwise");
  request.objective = params;
  request.facility_location.self_similarity = args.get_double("self-sim", 1.0);
  request.facility_location.utility_weighted = !args.has_flag("unweighted");
  request.coverage.saturation = args.get_double("saturation", 1.0);
  request.coverage.self_similarity = args.get_double("self-sim", 1.0);
  request.coverage.utility_weighted = !args.has_flag("unweighted");
  const bool distributed = args.has_flag("distributed");
  args.reject_unread("score");

  const auto dataset = data::load_dataset(data_path);
  const auto subset = data::load_subset(subset_path);
  const auto ground_set = dataset.ground_set();
  request.ground_set = &ground_set;
  const auto kernel = api::ObjectiveRegistry::instance().make(request);

  double score = 0.0;
  if (distributed) {
    if (!kernel->caps().distributed_scoring) {
      std::fprintf(stderr,
                   "--distributed scoring needs an edge-decomposable"
                   " objective; \"%s\" has none\n",
                   request.objective_name.c_str());
      return 1;
    }
    dataflow::Pipeline pipeline;
    score = beam::beam_score(pipeline, ground_set, subset, params);
  } else {
    score = kernel->evaluate(std::span<const core::NodeId>(subset));
  }
  std::printf("f(S) = %.6f over %zu points (objective=%s, alpha=%.2f%s)\n",
              score, subset.size(), request.objective_name.c_str(), params.alpha,
              distributed ? ", distributed" : "");
  return 0;
}

// Signal handlers may only touch lock-free state; the accept loop polls
// this flag (poll() also returns EINTR on the signal, so the reaction is
// prompt even on an idle listener).
std::atomic<bool> g_serve_stop{false};

void request_serve_stop(int) { g_serve_stop.store(true); }

int cmd_serve(const CliArgs& args) {
  const std::string socket_path = args.require("socket");
  const auto data_flags = args.get_all("data");
  if (data_flags.empty()) {
    throw std::invalid_argument("serve needs at least one --data=[NAME=]PREFIX");
  }

  serve::ServerConfig config;
  config.queue_capacity = args.get_size("queue-capacity", 128);
  config.max_concurrent = args.get_size("max-concurrent", 2);
  config.pool_threads = args.get_size("threads", 0);
  config.default_deadline_ms = static_cast<std::uint64_t>(
      args.get_size("default-deadline-ms", 0));
  config.limits.max_request_bytes =
      args.get_size("max-request-bytes", config.limits.max_request_bytes);

  const bool disk = args.has_flag("disk");
  for (const std::string& entry : data_flags) {
    serve::DatasetSpec spec;
    // "--data=NAME=PREFIX" serves the dataset under NAME; a bare prefix is
    // served under its basename ("data/cifar" -> "cifar").
    const std::size_t equals = entry.find('=');
    if (equals != std::string::npos) {
      spec.name = entry.substr(0, equals);
      spec.path = entry.substr(equals + 1);
    } else {
      spec.path = entry;
      const std::size_t slash = entry.find_last_of('/');
      spec.name = slash == std::string::npos ? entry : entry.substr(slash + 1);
    }
    spec.disk = disk;
    spec.cache.max_cached_blocks = args.get_size("cache-blocks", 64);
    spec.cache.block_edges = args.get_size("block-edges", spec.cache.block_edges);
    spec.cache.num_shards = args.get_size("disk-shards", spec.cache.num_shards);
    // Constraint sidecars apply to every served dataset (the common case is
    // one dataset per daemon); requests opt in per-request via cost_budget /
    // group_cap.
    spec.cost_file = args.get("cost-file").value_or("");
    spec.group_file = args.get("group-file").value_or("");
    config.datasets.push_back(std::move(spec));
  }
  args.reject_unread("serve");

  serve::SelectionServer server(config);
  serve::SocketServer transport(server, socket_path);

  struct sigaction action {};
  action.sa_handler = request_serve_stop;
  ::sigaction(SIGTERM, &action, nullptr);
  ::sigaction(SIGINT, &action, nullptr);

  for (const auto& info : server.dataset_infos()) {
    std::printf("dataset %s: %zu points (%s)\n", info.name.c_str(),
                info.num_points, info.disk ? "disk-resident" : "in-memory");
  }
  // The CI smoke job (and any supervisor) waits for this line before
  // sending traffic; flush so it is visible through a pipe immediately.
  std::printf("listening on %s\n", socket_path.c_str());
  std::fflush(stdout);

  transport.run(&g_serve_stop);

  const auto counters = server.counters();
  std::printf("drained: %llu accepted, %llu completed, %llu degraded,"
              " %llu rejected, %llu errors (queue high-water %zu)\n",
              static_cast<unsigned long long>(counters.accepted),
              static_cast<unsigned long long>(counters.completed),
              static_cast<unsigned long long>(counters.degraded),
              static_cast<unsigned long long>(counters.rejected),
              static_cast<unsigned long long>(counters.errors),
              counters.queue_depth_high_water);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  const CliArgs args(argc, argv);
  try {
    // Fault injection arms before anything can hit a site: the env var
    // first (covers every path, including dataset loading), then the
    // explicit flag, which wins over the environment.
    failpoint::arm_from_env();
    if (const auto spec = args.get("failpoints"); spec.has_value()) {
      failpoint::arm_from_spec(*spec);
    }
    if (command == "generate") return cmd_generate(args);
    if (command == "info") return cmd_info(args);
    if (command == "solvers") return cmd_solvers(args);
    if (command == "objectives") return cmd_objectives(args);
    if (command == "select") return cmd_select(args);
    if (command == "score") return cmd_score(args);
    if (command == "serve") return cmd_serve(args);
    return usage();
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return usage();
  } catch (const graph::DiskFormatError& e) {
    std::fprintf(stderr, "disk error: %s\n", e.what());
    return 3;
  } catch (const TaskError& e) {
    std::fprintf(stderr, "worker error: %s\n", e.what());
    return 5;
  } catch (const failpoint::FailpointError& e) {
    // An injected fault that no layer absorbed is reported like the worker
    // failure it stands in for.
    std::fprintf(stderr, "injected fault: %s\n", e.what());
    return 5;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}
