// End-to-end benchmark: runs ONE workload per process.
//
//   e2e_bench --workload=NAME --seed=N --seconds=S --trace=0|1
//              --work-dir=DIR --cli=PATH/subsel_cli --results=FILE.json
//              [--commit=SHA] [--dirty=0|1] [--source-hash=HEX]
//
// bench/e2e/run.py builds this binary and `subsel_cli` and supplies these
// arguments; bench/e2e/README.md documents the workloads and every metric.
//
// A run sets the workload up three times (set-up time is reported as the
// median), does the untimed reference work (reference solves, parity
// selections, machine probe), then measures for --seconds. The benchmark only
// observes the library from outside: it times its own calls into the public
// functions of data, graph, core, baselines, api and serve, and reads what the
// program already reports (SelectionReport timings/rounds/bounding/disk_cache,
// serve latency breakdowns and counters).
//
// Output: every end-to-end metric as "workload metric value unit" lines, the
// per-layer metrics and self-time table when traced, a results JSON with the
// run's manifest, a Chrome trace when traced, and as the LAST stdout line one
// JSON object {"correct", "attempted", "failed", "metrics"} holding the
// end-to-end metrics (--trace=0) or the per-layer metrics (--trace=1).
// Exit status: 0 when every correctness check passed, 1 when one failed,
// 2 on a usage error, 3 when the run could not complete.
#include <fcntl.h>
#include <malloc.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <queue>
#include <random>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "api/objective_registry.h"
#include "api/selection_api.h"
#include "api/solver_registry.h"
#include "common/json.h"
#include "common/log.h"
#include "common/simd.h"
#include "common/thread_pool.h"
#include "data/dataset_io.h"
#include "data/datasets.h"
#include "data/synthetic.h"
#include "data/utility_model.h"
#include "graph/disk_ground_set.h"
#include "graph/knn.h"
#include "graph/similarity_graph.h"
#include "serve/client.h"
#include "serve/wire.h"
#include "trace.h"

namespace {

using namespace subsel;
using e2e::ScopedSpan;
using graph::NodeId;

#ifndef E2E_COMPILER
#define E2E_COMPILER "unknown"
#endif
#ifndef E2E_BUILD_TYPE
#define E2E_BUILD_TYPE "unknown"
#endif
#ifndef E2E_CXX_FLAGS
#define E2E_CXX_FLAGS "unknown"
#endif

constexpr int kSetupRepetitions = 3;
constexpr std::size_t kRecallQueries = 1000;
constexpr std::size_t kRecallAt = 10;
constexpr double kAlpha = 0.9;
// The triad footprint is 4x the last-level cache, capped so the probe stays
// small on hosts with very large shared caches (the manifest records both).
constexpr std::size_t kTriadCapBytes = std::size_t{256} << 20;
// An open-loop run whose generator sent its p99 request later than this
// behind schedule measured the generator, not the daemon: the run is void.
// That is a fact about the host, not the program's output, so it marks the
// results file instead of failing a correctness check.
constexpr double kMaxGeneratorLateSeconds = 0.005;
constexpr int kDaemonNice = 5;

// ---------------------------------------------------------------------------
// Workload inputs.
// ---------------------------------------------------------------------------

struct Shape {
  const char* name;
  std::size_t points;
  std::size_t dim;
  std::size_t classes;
};

// The CIFAR-100 proxy at the paper's cardinality.
constexpr Shape kCifar{"cifar100_proxy", 50'000, 64, 100};
// The ImageNet proxy's 1,000 classes at 80,000 x 64-d: the 120,000 x 128-d
// default needs ~17 s of set-up on 4 cores, and a run sets up three times.
constexpr Shape kImagenet{"imagenet_proxy", 80'000, 64, 1000};

data::ClusteredEmbeddings generate(const Shape& shape, std::uint64_t seed) {
  data::ClusteredEmbeddingConfig config;
  config.num_points = shape.points;
  config.dim = shape.dim;
  config.num_classes = shape.classes;
  config.seed = seed;
  return data::generate_clustered_embeddings(config);
}

data::CoarseClassifierConfig classifier_config(std::uint64_t seed) {
  data::CoarseClassifierConfig config;
  config.seed = seed + 7;
  return config;
}

// The proxy default: IVF over float32, 10-NN, 8 probes.
graph::KnnConfig knn_config(std::uint64_t seed) {
  graph::KnnConfig config;
  config.num_neighbors = 10;
  config.num_probes = 8;
  config.seed = seed + 1;
  return config;
}

api::SelectionRequest make_request(const graph::GroundSet& ground_set,
                                   const std::string& solver,
                                   const std::string& objective, std::size_t k,
                                   std::uint64_t seed) {
  api::SelectionRequest request;
  request.ground_set = &ground_set;
  request.k = k;
  request.solver = solver;
  request.objective_name = objective;
  request.objective = core::ObjectiveParams::from_alpha(kAlpha);
  request.seed = seed;
  request.bounding.enabled = false;
  request.distributed.num_machines = 8;
  request.distributed.num_rounds = 8;
  request.distributed.adaptive_partitioning = true;
  return request;
}

// ---------------------------------------------------------------------------
// Statistics. Defined here rather than borrowed from the library so that no
// program change can redefine a benchmark statistic.
// ---------------------------------------------------------------------------

/// Nearest-rank percentile (p in [0, 100]); never interpolates.
double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(values.size())));
  return values[rank == 0 ? 0 : rank - 1];
}

double median(std::vector<double> values) {
  return percentile(std::move(values), 50.0);
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

// ---------------------------------------------------------------------------
// Process and machine.
// ---------------------------------------------------------------------------

std::size_t cpu_count() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<std::size_t>(CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

/// A "VmRSS:"/"VmHWM:" field of /proc/<pid>/status in bytes (0 if absent).
std::size_t proc_status_bytes(const std::string& pid, const char* field) {
  std::ifstream in("/proc/" + pid + "/status");
  const std::string prefix = std::string(field) + ":";
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(prefix, 0) == 0) {
      return static_cast<std::size_t>(std::stoull(line.substr(prefix.size()))) *
             1024;
    }
  }
  return 0;
}

/// Returns freed set-up memory to the OS and restarts the kernel's peak-RSS
/// counter, so VmHWM afterwards is the measured phase's own peak. Returns
/// false when the counter could not be reset.
bool start_peak_rss_window() {
  malloc_trim(0);
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.flush();
  return static_cast<bool>(clear);
}

/// An owned file descriptor.
class Fd {
 public:
  explicit Fd(int fd = -1) : fd_(fd) {}
  ~Fd() {
    if (fd_ >= 0) ::close(fd_);
  }
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;

  int get() const noexcept { return fd_; }
  void reset(int fd = -1) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = fd;
  }

 private:
  int fd_;
};

struct MachineProbe {
  std::size_t llc_bytes = 0;
  std::size_t triad_bytes = 0;  // footprint of the three triad arrays
  double triad_gbs = 0.0;
  std::string pread_file;
  double pread_4k_us = 0.0;
  std::size_t block_bytes = 0;
  double pread_block_us = 0.0;
};

/// STREAM-style triad a = b + s*c on all pool threads; best of five.
void probe_triad(ThreadPool& pool, MachineProbe& probe) {
  const long llc = sysconf(_SC_LEVEL3_CACHE_SIZE);
  probe.llc_bytes = llc > 0 ? static_cast<std::size_t>(llc) : 0;
  const std::size_t footprint =
      probe.llc_bytes > 0 ? std::min(4 * probe.llc_bytes, kTriadCapBytes)
                          : kTriadCapBytes;
  const std::size_t n = footprint / (3 * sizeof(double));
  probe.triad_bytes = 3 * n * sizeof(double);
  std::vector<double> a(n), b(n, 1.0), c(n, 2.0);
  const std::size_t chunks = pool.size() * 4;
  double best = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < 5; ++rep) {
    const auto start = std::chrono::steady_clock::now();
    pool.parallel_for(chunks, [&](std::size_t chunk) {
      const std::size_t first = n * chunk / chunks;
      const std::size_t last = n * (chunk + 1) / chunks;
      for (std::size_t i = first; i < last; ++i) a[i] = b[i] + 3.0 * c[i];
    });
    best = std::min(best, std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - start)
                              .count());
  }
  if (a[n / 2] != 7.0) throw std::logic_error("triad probe computed garbage");
  probe.triad_gbs = static_cast<double>(probe.triad_bytes) / best / 1e9;
}

/// Median latency of 4 KiB and of cache-block-sized preads at random aligned
/// offsets of `path`, after one sequential pass puts the file in the page
/// cache (the benchmark claims nothing about real-disk behaviour).
void probe_pread(const std::string& path, std::uint64_t seed,
                 MachineProbe& probe) {
  const Fd fd(::open(path.c_str(), O_RDONLY | O_CLOEXEC));
  if (fd.get() < 0) throw std::runtime_error("pread probe: cannot open " + path);
  struct stat st {};
  if (::fstat(fd.get(), &st) != 0 || st.st_size <= 0) {
    throw std::runtime_error("pread probe: cannot stat " + path);
  }
  const auto size = static_cast<std::size_t>(st.st_size);
  probe.pread_file = std::filesystem::path(path).filename().string();
  probe.block_bytes = graph::DiskGroundSetConfig{}.block_edges * sizeof(graph::Edge);
  std::vector<char> buffer(std::max<std::size_t>(probe.block_bytes, 4096));
  for (std::size_t offset = 0; offset < size; offset += buffer.size()) {
    if (::pread(fd.get(), buffer.data(), buffer.size(),
                static_cast<off_t>(offset)) < 0) {
      throw std::runtime_error("pread probe: read failed on " + path);
    }
  }
  std::mt19937_64 rng(seed);
  const auto sample = [&](std::size_t bytes, int count) {
    const std::size_t slots = std::max<std::size_t>(1, size / bytes);
    std::vector<double> micros;
    for (int i = 0; i < count; ++i) {
      const auto offset = static_cast<off_t>((rng() % slots) * bytes);
      const auto start = std::chrono::steady_clock::now();
      if (::pread(fd.get(), buffer.data(), bytes, offset) <= 0) {
        throw std::runtime_error("pread probe: read failed on " + path);
      }
      micros.push_back(std::chrono::duration<double, std::micro>(
                           std::chrono::steady_clock::now() - start)
                           .count());
    }
    return median(std::move(micros));
  };
  probe.pread_4k_us = sample(4096, 2000);
  probe.pread_block_us = sample(probe.block_bytes, 500);
}

// ---------------------------------------------------------------------------
// Options and the run's shared state.
// ---------------------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 0.0;      // required
  bool trace = false;
  std::string work_dir = ".bench_build/e2e/work";
  std::string cli;           // required
  std::string results;
  std::string commit = "unknown";
  std::string dirty = "unknown";
  std::string source_hash = "unknown";
};

Options parse_options(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::size_t equals = arg.find('=');
    if (arg.rfind("--", 0) != 0 || equals == std::string::npos) {
      throw std::invalid_argument("expected --name=value, got " + arg);
    }
    const std::string key = arg.substr(2, equals - 2);
    const std::string value = arg.substr(equals + 1);
    if (key == "workload") {
      options.workload = value;
    } else if (key == "seed") {
      options.seed = std::stoull(value);
    } else if (key == "seconds") {
      options.seconds = std::stod(value);
    } else if (key == "trace") {
      if (value != "0" && value != "1") throw std::invalid_argument("--trace is 0 or 1");
      options.trace = value == "1";
    } else if (key == "work-dir") {
      options.work_dir = value;
    } else if (key == "cli") {
      options.cli = value;
    } else if (key == "results") {
      options.results = value;
    } else if (key == "commit") {
      options.commit = value;
    } else if (key == "dirty") {
      options.dirty = value;
    } else if (key == "source-hash") {
      options.source_hash = value;
    } else {
      throw std::invalid_argument("unknown option --" + key);
    }
  }
  if (options.workload.empty() || options.cli.empty()) {
    throw std::invalid_argument("--workload and --cli are required");
  }
  if (!(options.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  return options;
}

struct MetricDef {
  const char* name;
  const char* unit;
};

// No end-to-end p90: every workload must report every end-to-end metric, and
// ingest_bound's few ops per run leave no ten samples beyond a 90th
// percentile. The serving tail is the per-layer serve.interactive_p90_s.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},           {"op_p50_s", "s"},
    {"throughput_ops_s", "1/s"}, {"objective_ratio", "ratio"},
    {"rss_peak_mb", "MB"},      {"ok_frac", "ratio"},
};

// Every per-layer metric, reported by every workload (0 where the workload
// does not use the layer). Metrics in kComputed are derived by formula from
// counts and the machine probe, not timed.
constexpr MetricDef kPerLayer[] = {
    {"data.embed_s", "s"},
    {"data.utility_s", "s"},
    {"data.save_s", "s"},
    {"data.load_s", "s"},
    {"graph.knn_build_s", "s"},
    {"graph.edges", "count"},
    {"graph.knn_recall10", "ratio"},
    {"graph.disk_open_s", "s"},
    {"graph.disk_misses_per_op", "count"},
    {"graph.disk_hits_per_op", "count"},
    {"graph.disk_hit_ratio", "ratio"},
    {"graph.disk_prefetch_loaded_per_op", "count"},
    {"graph.disk_read_retries", "count"},
    {"graph.disk_read_mb_per_op", "MB"},
    {"graph.disk_read_achieved_over_expected", "ratio"},
    {"graph.disk_resident_mb", "MB"},
    {"core.bounding_s", "s"},
    {"core.bounding_passes", "count"},
    {"core.bounding_decided_frac", "ratio"},
    {"core.bounding_edges_per_s", "1/s"},
    {"core.bounding_achieved_over_expected", "ratio"},
    {"core.greedy_s", "s"},
    {"core.greedy_rounds", "count"},
    {"core.greedy_points_in", "count"},
    {"core.peak_partition_mb", "MB"},
    {"core.peak_state_mb", "MB"},
    {"core.evaluate_s", "s"},
    {"baselines.lazy_greedy_s", "s"},
    {"baselines.stochastic_greedy_s", "s"},
    {"api.run_s", "s"},
    {"api.self_s", "s"},
    {"api.report_json_s", "s"},
    {"api.report_kb", "kB"},
    {"serve.start_s", "s"},
    {"serve.queue_p50_s", "s"},
    {"serve.queue_p90_s", "s"},
    {"serve.solve_p50_s", "s"},
    {"serve.report_p50_s", "s"},
    {"serve.transport_p50_s", "s"},
    {"serve.parse_us", "us"},
    {"serve.interactive_p90_s", "s"},
    {"serve.queue_depth_hw", "count"},
    {"serve.expired_in_queue", "count"},
    {"serve.degraded", "count"},
    {"serve.rejected", "count"},
    {"serve.gen_late_p99_s", "s"},
};

constexpr const char* kComputed[] = {
    "graph.disk_read_mb_per_op", "graph.disk_read_achieved_over_expected",
    "core.bounding_edges_per_s", "core.bounding_achieved_over_expected",
};

struct Run {
  explicit Run(const Options& opts)
      : options(opts), trace(opts.trace), pool(cpu_count()), context(&pool) {}

  const Options& options;
  e2e::Trace trace;
  ThreadPool pool;
  api::SolverContext context;  // reused across ops, as a long-lived caller would
  MachineProbe probe;
  bool peak_rss_reset = false;

  int setup_span = -1;  // the set-up repetition in progress
  std::vector<double> setup_seconds;
  std::map<std::string, std::vector<double>> setup_parts;

  std::size_t attempted = 0;
  std::size_t failed_ops = 0;        // ops that errored, degraded or failed a check
  std::vector<std::string> failures; // every failed correctness check
  std::size_t run_failures = 0;      // failed checks that belong to no op
  std::string void_reason;           // non-empty: the latency numbers are void

  std::map<std::string, double> e2e;
  std::map<std::string, double> layer;
  std::map<std::string, std::size_t> samples;
  std::vector<std::pair<std::string, double>> sizes;

  void check_run(bool ok, const std::string& what) {
    if (ok) return;
    failures.push_back(what);
    ++run_failures;
  }
};

/// Times one set-up step as a child of the current set-up span.
template <typename Fn>
void setup_step(Run& run, const std::string& metric, const char* span, Fn&& fn) {
  ScopedSpan scope(run.trace, span, -1, run.setup_span);
  fn();
  run.setup_parts[metric].push_back(scope.stop());
}

template <typename Fn>
double timed(Run& run, const char* span, long op, int parent, Fn&& fn) {
  ScopedSpan scope(run.trace, span, op, parent);
  fn();
  return scope.stop();
}

/// Empty when `ids` answers a k-budget request over n points: strictly
/// ascending (hence unique), in range, and exactly k ids unless degraded.
template <typename Id>
std::string selection_error(const std::vector<Id>& ids, std::size_t n, std::size_t k,
                            bool degraded) {
  if (!degraded && ids.size() != k) {
    return "returned " + std::to_string(ids.size()) + " ids for k=" + std::to_string(k);
  }
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (ids[i] < 0 || static_cast<std::size_t>(ids[i]) >= n) {
      return "id " + std::to_string(ids[i]) + " out of range";
    }
    if (i > 0 && !(ids[i - 1] < ids[i])) return "ids not strictly ascending";
  }
  return {};
}

std::string selection_error(const std::vector<std::uint64_t>& ids, std::size_t n,
                            std::size_t k, bool degraded) {
  std::vector<std::int64_t> signed_ids(ids.begin(), ids.end());
  return selection_error(signed_ids, n, k, degraded);
}

double reference_objective(Run& run, const graph::GroundSet& ground_set,
                           const std::string& objective, std::size_t k) {
  ScopedSpan span(run.trace, "bench.reference");
  api::SolverContext context(&run.pool);
  return api::SolverRegistry::instance()
      .run(make_request(ground_set, "lazy-greedy", objective, k, run.options.seed),
           context)
      .objective;
}

/// Recall@10 of the built graph against an exact scan, on sampled queries:
/// the graph's ten heaviest edges of each query versus its true ten nearest
/// rows by cosine similarity.
double knn_recall10(Run& run, const graph::EmbeddingMatrix& points,
                    const graph::SimilarityGraph& built) {
  ScopedSpan span(run.trace, "bench.recall_probe");
  const std::size_t n = points.rows();
  std::mt19937_64 rng(run.options.seed + 99);
  std::vector<std::size_t> queries(std::min(kRecallQueries, n));
  for (auto& q : queries) q = rng() % n;
  std::vector<double> recall(queries.size(), 0.0);
  run.pool.parallel_for(queries.size(), [&](std::size_t i) {
    const std::size_t q = queries[i];
    using Scored = std::pair<float, std::size_t>;
    std::priority_queue<Scored, std::vector<Scored>, std::greater<Scored>> best;
    for (std::size_t u = 0; u < n; ++u) {
      if (u == q) continue;
      const float s = graph::dot(points.row(q), points.row(u));
      if (best.size() < kRecallAt) {
        best.emplace(s, u);
      } else if (s > best.top().first) {
        best.pop();
        best.emplace(s, u);
      }
    }
    std::vector<graph::Edge> edges(built.neighbors(static_cast<NodeId>(q)).begin(),
                                   built.neighbors(static_cast<NodeId>(q)).end());
    const std::size_t top = std::min(kRecallAt, edges.size());
    std::partial_sort(edges.begin(), edges.begin() + static_cast<long>(top), edges.end(),
                      [](const graph::Edge& a, const graph::Edge& b) {
                        return a.weight > b.weight;
                      });
    std::size_t found = 0;
    const std::size_t truth = best.size();
    while (!best.empty()) {
      const auto id = static_cast<NodeId>(best.top().second);
      best.pop();
      for (std::size_t e = 0; e < top; ++e) found += edges[e].neighbor == id;
    }
    recall[i] = truth == 0 ? 1.0 : static_cast<double>(found) / static_cast<double>(truth);
  });
  return mean(recall);
}

// ---------------------------------------------------------------------------
// Closed-loop ops through the API.
// ---------------------------------------------------------------------------

/// What one measured op left behind; the selected ids are checked and then
/// dropped.
struct OpRecord {
  double latency = 0.0;
  double ratio = 0.0;
  bool ok = true;
  double api_run = 0.0;
  double report_json = 0.0;
  std::size_t report_bytes = 0;
  std::size_t edges = 0;         // of the ground set; sizes the bounding passes
  double knn_build = -1.0;       // ingest ops only
  double utility = -1.0;         // ingest ops only
  double evaluate_probe = -1.0;  // traced runs on resident ground sets only
  api::SelectionReport report;
};

/// Which layer a SelectionReport stage timing belongs to.
const char* stage_span(const std::string& solver, const std::string& stage) {
  if (stage == "bounding") return "core.bounding";
  if (stage == "greedy") return "core.greedy";
  if (solver == "distributed-greedy") return "core.greedy";
  if (solver == "lazy-greedy") return "baselines.lazy_greedy";
  if (solver == "stochastic-greedy") return "baselines.stochastic_greedy";
  return "api.solve";
}

/// One selection through the registry plus its report serialization, as
/// children of op span `parent`. The report's stage timings become derived
/// children of the api.run span, laid end to end from its start.
void api_op(Run& run, const api::SelectionRequest& request, long op, int parent,
            OpRecord& record) {
  ScopedSpan run_span(run.trace, "api.run", op, parent);
  record.report = api::SolverRegistry::instance().run(request, run.context);
  record.api_run = run_span.stop();
  double cursor = run_span.start();
  for (const api::StageTiming& stage : record.report.timings) {
    run.trace.add(stage_span(request.solver, stage.stage), cursor,
                  cursor + stage.seconds, run_span.id(), op, true);
    cursor += stage.seconds;
  }
  ScopedSpan json_span(run.trace, "api.report_json", op, parent);
  const std::string json = record.report.to_json();
  record.report_json = json_span.stop();
  record.report_bytes = json.size();
}

/// Post-op checks (outside the op span): a valid selection, the same ids as
/// `expected` when given, and the objective ratio against the reference.
/// Traced runs re-time ObjectiveKernel::evaluate on the returned set when
/// `probe_evaluate` (in-memory ground sets only: a probe on a disk-backed set
/// would disturb the block cache the next op sees).
void finish_op(Run& run, const api::SelectionRequest& request, OpRecord& record,
               double reference, const std::vector<NodeId>* expected,
               bool probe_evaluate, long op) {
  const api::SelectionReport& report = record.report;
  const std::size_t n = request.ground_set->num_points();
  std::string error = selection_error(report.selected, n, request.k, report.degraded);
  if (error.empty() && expected != nullptr && report.selected != *expected) {
    error = "selection differs from the in-memory selection";
  }
  if (!error.empty()) {
    run.failures.push_back("op " + std::to_string(op) + " (" + request.solver + "/" +
                           request.objective_name + "): " + error);
  }
  record.ok = error.empty() && !report.degraded && !report.preempted;
  record.ratio = reference > 0.0 ? report.objective / reference : 0.0;
  if (probe_evaluate && run.trace.enabled()) {
    const auto kernel = api::ObjectiveRegistry::instance().make(request);
    ScopedSpan span(run.trace, "core.evaluate", op);
    const double value =
        kernel->evaluate(std::span<const NodeId>(report.selected), &run.pool);
    record.evaluate_probe = span.stop();
    if (!std::isfinite(value)) run.check_run(false, "evaluate probe returned non-finite");
  }
  std::vector<NodeId>().swap(record.report.selected);
}

/// Runs whole cycles of `cycle` op kinds until `seconds` have elapsed and
/// fills the end-to-end metrics every closed-loop workload shares.
template <typename Op>
std::vector<OpRecord> closed_loop(Run& run, std::size_t cycle, Op&& op) {
  std::vector<OpRecord> records;
  const double start = run.trace.now();
  long id = 0;
  while (run.trace.now() - start < run.options.seconds) {
    for (std::size_t kind = 0; kind < cycle; ++kind) {
      OpRecord record;
      try {
        record = op(id, kind);
      } catch (const std::exception& e) {
        record.ok = false;
        run.failures.push_back("op " + std::to_string(id) + " threw: " + e.what());
      }
      records.push_back(std::move(record));
      ++id;
    }
  }
  const double wall = run.trace.now() - start;

  std::vector<double> latencies, ratios;
  for (const OpRecord& record : records) {
    latencies.push_back(record.latency);
    ratios.push_back(record.ratio);
    if (!record.ok) ++run.failed_ops;
  }
  run.attempted = records.size();
  run.e2e["op_p50_s"] = percentile(latencies, 50.0);
  run.samples["op_p50_s"] = latencies.size();
  run.e2e["throughput_ops_s"] = static_cast<double>(records.size()) / wall;
  run.e2e["objective_ratio"] = mean(ratios);
  run.e2e["rss_peak_mb"] =
      static_cast<double>(proc_status_bytes("self", "VmHWM")) / 1e6;
  return records;
}

/// Per-layer metrics from the records of API ops.
void api_layer_metrics(Run& run, const std::vector<OpRecord>& records) {
  std::vector<double> api_run, api_self, report_json, report_kb, evaluate;
  std::vector<double> bounding_s, passes, decided, edges_per_s, greedy_s, greedy_rounds,
      points_in, lazy_s, stochastic_s;
  std::vector<double> misses, hits, prefetched, read_mb;
  double peak_partition = 0.0, peak_state = 0.0, retries = 0.0, resident = 0.0;
  double hit_total = 0.0, access_total = 0.0, disk_op_seconds = 0.0;
  for (const OpRecord& record : records) {
    const api::SelectionReport& report = record.report;
    if (report.solver.empty()) continue;  // the op threw
    api_run.push_back(record.api_run);
    double staged = 0.0;
    double op_bounding = 0.0;
    for (const api::StageTiming& stage : report.timings) {
      staged += stage.seconds;
      const std::string layer = stage_span(report.solver, stage.stage);
      if (layer == "core.bounding") {
        bounding_s.push_back(stage.seconds);
        op_bounding += stage.seconds;
      }
      if (layer == "core.greedy") greedy_s.push_back(stage.seconds);
      if (layer == "baselines.lazy_greedy") lazy_s.push_back(stage.seconds);
      if (layer == "baselines.stochastic_greedy") stochastic_s.push_back(stage.seconds);
    }
    api_self.push_back(record.api_run - staged);
    report_json.push_back(record.report_json);
    report_kb.push_back(static_cast<double>(record.report_bytes) / 1e3);
    if (record.evaluate_probe >= 0.0) evaluate.push_back(record.evaluate_probe);
    if (report.bounding.has_value()) {
      const double pass_count = static_cast<double>(report.bounding->grow_rounds +
                                                    report.bounding->shrink_rounds);
      passes.push_back(pass_count);
      decided.push_back(static_cast<double>(report.bounding->included +
                                            report.bounding->excluded) /
                        static_cast<double>(report.num_points));
      // Computed, an upper bound: every pass counted as a full edge scan.
      if (op_bounding > 0.0) {
        edges_per_s.push_back(pass_count * static_cast<double>(record.edges) /
                              op_bounding);
      }
    }
    if (report.solver == "distributed-greedy" || report.solver == "pipeline") {
      greedy_rounds.push_back(static_cast<double>(report.rounds.size()));
      double in = 0.0;
      for (const core::RoundStats& round : report.rounds) {
        in += static_cast<double>(round.input_size);
      }
      points_in.push_back(in);
    }
    peak_partition = std::max(peak_partition, static_cast<double>(report.peak_partition_bytes));
    peak_state = std::max(peak_state, static_cast<double>(report.peak_kernel_state_bytes));
    if (report.disk_cache.has_value()) {
      const api::DiskCacheSummary& disk = *report.disk_cache;
      misses.push_back(static_cast<double>(disk.misses));
      hits.push_back(static_cast<double>(disk.hits));
      prefetched.push_back(static_cast<double>(disk.prefetch_loaded));
      read_mb.push_back(static_cast<double>(disk.misses + disk.prefetch_loaded) *
                        static_cast<double>(run.probe.block_bytes) / 1e6);
      retries += static_cast<double>(disk.read_retries);
      hit_total += static_cast<double>(disk.hits);
      access_total += static_cast<double>(disk.hits + disk.misses);
      disk_op_seconds += record.latency;
      resident = static_cast<double>(disk.resident_bytes) / 1e6;
    }
  }
  auto& layer = run.layer;
  layer["api.run_s"] = median(api_run);
  layer["api.self_s"] = median(api_self);
  layer["api.report_json_s"] = median(report_json);
  layer["api.report_kb"] = median(report_kb);
  layer["core.evaluate_s"] = median(evaluate);
  layer["core.bounding_s"] = median(bounding_s);
  layer["core.bounding_passes"] = median(passes);
  layer["core.bounding_decided_frac"] = median(decided);
  layer["core.bounding_edges_per_s"] = median(edges_per_s);
  // Expected: a pass streams every edge (sizeof(Edge) bytes) once at the
  // probed triad bandwidth.
  layer["core.bounding_achieved_over_expected"] =
      run.probe.triad_gbs > 0.0
          ? median(edges_per_s) * sizeof(graph::Edge) / (run.probe.triad_gbs * 1e9)
          : 0.0;
  layer["core.greedy_s"] = median(greedy_s);
  layer["core.greedy_rounds"] = median(greedy_rounds);
  layer["core.greedy_points_in"] = median(points_in);
  layer["core.peak_partition_mb"] = peak_partition / 1e6;
  layer["core.peak_state_mb"] = peak_state / 1e6;
  layer["baselines.lazy_greedy_s"] = median(lazy_s);
  layer["baselines.stochastic_greedy_s"] = median(stochastic_s);
  layer["graph.disk_misses_per_op"] = mean(misses);
  layer["graph.disk_hits_per_op"] = mean(hits);
  layer["graph.disk_hit_ratio"] = access_total > 0.0 ? hit_total / access_total : 0.0;
  layer["graph.disk_prefetch_loaded_per_op"] = mean(prefetched);
  layer["graph.disk_read_retries"] = retries;
  layer["graph.disk_read_mb_per_op"] = mean(read_mb);
  // Achieved: block MB paged in per second of op time; expected: one
  // thread's page-cached block pread rate from the probe.
  const double expected_mb_per_s =
      run.probe.pread_block_us > 0.0
          ? static_cast<double>(run.probe.block_bytes) / 1e6 /
                (run.probe.pread_block_us * 1e-6)
          : 0.0;
  double read_total = 0.0;
  for (double mb : read_mb) read_total += mb;
  layer["graph.disk_read_achieved_over_expected"] =
      disk_op_seconds > 0.0 && expected_mb_per_s > 0.0
          ? read_total / disk_op_seconds / expected_mb_per_s
          : 0.0;
  layer["graph.disk_resident_mb"] = resident;
}

// ---------------------------------------------------------------------------
// Workloads.
// ---------------------------------------------------------------------------

class Workload {
 public:
  virtual ~Workload() = default;
  /// One timed set-up; runs kSetupRepetitions times, each replacing the last.
  virtual void setup(Run& run) = 0;
  /// Untimed work before the measured phase: reference solves, parity
  /// selections, probes. Frees whatever the measured phase does not use.
  virtual void prepare(Run& run) = 0;
  /// The measured phase: fills the run's metrics and failure counters.
  virtual void measure(Run& run) = 0;
  /// The lowest objective_ratio that passes the correctness check.
  virtual double ratio_floor() const = 0;
};

/// Generates embeddings, utilities and the kNN graph as set-up steps.
data::Dataset build_dataset(Run& run, const Shape& shape) {
  data::Dataset dataset;
  dataset.name = shape.name;
  data::ClusteredEmbeddings generated;
  setup_step(run, "data.embed_s", "data.embed",
             [&] { generated = generate(shape, run.options.seed); });
  setup_step(run, "data.utility_s", "data.utility", [&] {
    const data::CoarseClassifier classifier(generated.centers,
                                            classifier_config(run.options.seed));
    dataset.utilities = data::compute_margin_utilities(generated.points, classifier);
  });
  setup_step(run, "graph.knn_build_s", "graph.knn_build", [&] {
    dataset.graph = graph::build_similarity_graph(
        generated.points, knn_config(run.options.seed), 4096, &run.pool);
  });
  dataset.embeddings = std::move(generated.points);
  dataset.labels = std::move(generated.labels);
  return dataset;
}

void save_dataset_step(Run& run, const data::Dataset& dataset, const std::string& prefix) {
  setup_step(run, "data.save_s", "data.save", [&] { data::save_dataset(dataset, prefix); });
}

/// Paper-deployed path, raw embeddings to report: every op builds the kNN
/// graph, computes utilities, runs bounding + partition greedy and
/// serializes the report.
class IngestBound final : public Workload {
 public:
  static constexpr std::size_t kBudget = 5000;
  // Ops run whole cycles over several embedding sets drawn from the seed.
  // Bounding's pass count, and so an op's cost, varies by about 10% from one
  // set to the next; with every set weighing the same, a run's latency is a
  // median over sets instead of the cost of the one set its seed drew. Three
  // sets at ~2.7 s per op fit two cycles in a 12 s run.
  static constexpr std::size_t kDatasets = 3;
  static constexpr double kRatioFloor = 0.995;

  double ratio_floor() const override { return kRatioFloor; }

  void setup(Run& run) override {
    inputs_ = {};
    setup_step(run, "data.embed_s", "data.embed", [&] {
      for (std::size_t i = 0; i < kDatasets; ++i) {
        Input& input = inputs_[i];
        input.seed = run.options.seed * kDatasets + i;
        input.embeddings = generate(kCifar, input.seed);
        input.classifier.emplace(input.embeddings.centers,
                                 classifier_config(input.seed));
      }
    });
  }

  void prepare(Run& run) override {
    run.sizes = {{"points", kCifar.points}, {"dim", kCifar.dim},
                 {"classes", kCifar.classes}, {"datasets", kDatasets},
                 {"k", kBudget}, {"bounding_sample_fraction", 0.3},
                 {"objective_ratio_floor", kRatioFloor}};
    // Each set's reference needs its graph, which the ops rebuild; build it
    // once here so that no reference solve runs in the measured phase.
    for (std::size_t i = 0; i < kDatasets; ++i) {
      Input& input = inputs_[i];
      const graph::SimilarityGraph built = graph::build_similarity_graph(
          input.embeddings.points, knn_config(input.seed), 4096, &run.pool);
      const std::vector<double> utilities =
          data::compute_margin_utilities(input.embeddings.points, *input.classifier);
      input.reference = reference_objective(
          run, graph::InMemoryGroundSet(built, utilities), "pairwise", kBudget);
      if (i == 0 && run.trace.enabled()) {
        run.layer["graph.knn_recall10"] =
            knn_recall10(run, input.embeddings.points, built);
      }
    }
  }

  void measure(Run& run) override {
    const auto records = closed_loop(run, kDatasets, [&](long op, std::size_t kind) {
      const Input& input = inputs_[kind];
      OpRecord record;
      ScopedSpan op_span(run.trace, "bench.op", op);
      graph::SimilarityGraph built;
      std::vector<double> utilities;
      record.knn_build = timed(run, "graph.knn_build", op, op_span.id(), [&] {
        built = graph::build_similarity_graph(input.embeddings.points,
                                              knn_config(input.seed), 4096, &run.pool);
      });
      record.utility = timed(run, "data.utility", op, op_span.id(), [&] {
        utilities =
            data::compute_margin_utilities(input.embeddings.points, *input.classifier);
      });
      const graph::InMemoryGroundSet ground_set(built, utilities);
      api::SelectionRequest request =
          make_request(ground_set, "pipeline", "pairwise", kBudget, input.seed);
      request.bounding.enabled = true;
      request.bounding.sampling = core::BoundingSampling::kUniform;
      request.bounding.sample_fraction = 0.3;
      api_op(run, request, op, op_span.id(), record);
      record.latency = op_span.stop();
      record.edges = built.num_edges();
      finish_op(run, request, record, input.reference, nullptr, true, op);
      return record;
    });
    api_layer_metrics(run, records);
    std::vector<double> knn, utility, edges;
    for (const OpRecord& record : records) {
      if (record.knn_build >= 0.0) knn.push_back(record.knn_build);
      if (record.utility >= 0.0) utility.push_back(record.utility);
      edges.push_back(static_cast<double>(record.edges));
    }
    run.layer["graph.knn_build_s"] = median(knn);
    run.layer["data.utility_s"] = median(utility);
    run.layer["graph.edges"] = median(edges);
  }

 private:
  struct Input {
    std::uint64_t seed = 0;
    data::ClusteredEmbeddings embeddings;
    std::optional<data::CoarseClassifier> classifier;
    double reference = 0.0;  // f(S_ref), from prepare()
  };

  std::array<Input, kDatasets> inputs_;
};

/// Alg. 6 partition greedy in memory, cycling the three objectives.
class RoundsMem final : public Workload {
 public:
  // 10% of the points, as k = 12,000 is of the 120,000-point default proxy.
  static constexpr std::size_t kBudget = 8000;
  static constexpr std::array<const char*, 3> kObjectives = {
      "pairwise", "facility-location", "saturated-coverage"};
  static constexpr double kRatioFloor = 0.885;

  double ratio_floor() const override { return kRatioFloor; }

  void setup(Run& run) override {
    ground_set_.reset();
    dataset_ = {};
    dataset_ = build_dataset(run, kImagenet);
    ground_set_ =
        std::make_unique<graph::InMemoryGroundSet>(dataset_.graph, dataset_.utilities);
  }

  void prepare(Run& run) override {
    run.sizes = {{"points", kImagenet.points}, {"dim", kImagenet.dim},
                 {"classes", kImagenet.classes}, {"k", kBudget},
                 {"machines", 8}, {"rounds", 8},
                 {"objective_ratio_floor", kRatioFloor}};
    for (std::size_t i = 0; i < kObjectives.size(); ++i) {
      reference_[i] = reference_objective(run, *ground_set_, kObjectives[i], kBudget);
    }
    run.layer["graph.edges"] = static_cast<double>(dataset_.graph.num_edges());
    if (run.trace.enabled()) {
      run.layer["graph.knn_recall10"] =
          knn_recall10(run, dataset_.embeddings, dataset_.graph);
    }
    dataset_.embeddings = {};
    dataset_.labels = {};
  }

  void measure(Run& run) override {
    const auto records = closed_loop(run, kObjectives.size(), [&](long op, std::size_t kind) {
      OpRecord record;
      const api::SelectionRequest request = make_request(
          *ground_set_, "distributed-greedy", kObjectives[kind], kBudget, run.options.seed);
      ScopedSpan op_span(run.trace, "bench.op", op);
      api_op(run, request, op, op_span.id(), record);
      record.latency = op_span.stop();
      record.edges = dataset_.graph.num_edges();
      finish_op(run, request, record, reference_[kind], nullptr, true, op);
      return record;
    });
    api_layer_metrics(run, records);
  }

 private:
  data::Dataset dataset_;
  std::unique_ptr<graph::InMemoryGroundSet> ground_set_;
  std::array<double, 3> reference_{};
};

/// The larger-than-memory regime: the same graph served from its file
/// through DiskGroundSet's block cache, by partition-local scans and by
/// random access.
class DiskOoc final : public Workload {
 public:
  static constexpr std::size_t kBudget = RoundsMem::kBudget;
  // 40 blocks of 4,096 edges hold ~12% of the proxy's ~1.35M edges.
  static constexpr std::size_t kCachedBlocks = 40;

  struct Kind {
    const char* solver;
    const char* objective;
  };
  static constexpr std::array<Kind, 4> kKinds = {{
      {"distributed-greedy", "pairwise"},
      {"lazy-greedy", "pairwise"},
      {"distributed-greedy", "facility-location"},
      {"stochastic-greedy", "pairwise"},
  }};
  static constexpr double kRatioFloor = 0.96;

  double ratio_floor() const override { return kRatioFloor; }

  explicit DiskOoc(const Options& options)
      : prefix_(options.work_dir + "/imagenet_proxy") {}

  void setup(Run& run) override {
    disk_.reset();
    {
      const data::Dataset dataset = build_dataset(run, kImagenet);
      save_dataset_step(run, dataset, prefix_);
    }
    data::DatasetScalars scalars;
    setup_step(run, "data.load_s", "data.load",
               [&] { scalars = data::load_dataset_scalars(prefix_); });
    setup_step(run, "graph.disk_open_s", "graph.disk_open", [&] {
      graph::DiskGroundSetConfig config;
      config.max_cached_blocks = kCachedBlocks;
      disk_ = std::make_unique<graph::DiskGroundSet>(
          prefix_ + ".graph", std::move(scalars.utilities), config);
    });
  }

  void prepare(Run& run) override {
    const graph::DiskGroundSetConfig config{};
    run.sizes = {{"points", kImagenet.points},  {"dim", kImagenet.dim},
                 {"classes", kImagenet.classes}, {"k", kBudget},
                 {"block_edges", config.block_edges}, {"cached_blocks", kCachedBlocks},
                 {"shards", config.num_shards},
                 {"objective_ratio_floor", kRatioFloor}};
    const data::Dataset dataset = data::load_dataset(prefix_);
    const graph::InMemoryGroundSet memory(dataset.graph, dataset.utilities);
    const double pairwise = reference_objective(run, memory, "pairwise", kBudget);
    const double facility = reference_objective(run, memory, "facility-location", kBudget);
    for (std::size_t i = 0; i < kKinds.size(); ++i) {
      ScopedSpan span(run.trace, "bench.parity_reference");
      api::SolverContext context(&run.pool);
      expected_[i] = api::SolverRegistry::instance()
                         .run(make_request(memory, kKinds[i].solver, kKinds[i].objective,
                                           kBudget, run.options.seed),
                              context)
                         .selected;
      reference_[i] =
          std::string(kKinds[i].objective) == "pairwise" ? pairwise : facility;
    }
    edges_ = dataset.graph.num_edges();
    run.layer["graph.edges"] = static_cast<double>(edges_);
    if (run.trace.enabled()) {
      run.layer["graph.knn_recall10"] =
          knn_recall10(run, dataset.embeddings, dataset.graph);
    }
    probe_pread(prefix_ + ".graph", run.options.seed, run.probe);
  }

  void measure(Run& run) override {
    const auto records = closed_loop(run, kKinds.size(), [&](long op, std::size_t kind) {
      OpRecord record;
      const api::SelectionRequest request =
          make_request(*disk_, kKinds[kind].solver, kKinds[kind].objective, kBudget,
                       run.options.seed);
      ScopedSpan op_span(run.trace, "bench.op", op);
      api_op(run, request, op, op_span.id(), record);
      record.latency = op_span.stop();
      record.edges = edges_;
      finish_op(run, request, record, reference_[kind], &expected_[kind], false, op);
      return record;
    });
    api_layer_metrics(run, records);
  }

 private:
  std::string prefix_;
  std::unique_ptr<graph::DiskGroundSet> disk_;
  std::array<std::vector<NodeId>, 4> expected_;
  std::array<double, 4> reference_{};
  std::size_t edges_ = 0;
};

// ---------------------------------------------------------------------------
// The serving daemon as a child process, and a socket client for it.
// ---------------------------------------------------------------------------

/// A `subsel_cli serve` child. The constructor returns once the daemon prints
/// "listening on"; stop() (and the destructor) sends SIGTERM, waits for the
/// graceful drain, and reaps it. The child gets SIGKILL if the benchmark dies.
class Daemon {
 public:
  Daemon(const std::vector<std::string>& args, double timeout_seconds) {
    std::vector<char*> argv;
    for (const std::string& arg : args) argv.push_back(const_cast<char*>(arg.c_str()));
    argv.push_back(nullptr);
    int fds[2];
    if (::pipe2(fds, O_CLOEXEC) != 0) throw std::runtime_error("pipe2 failed");
    out_.reset(fds[0]);
    pid_ = ::fork();
    if (pid_ == 0) {
      // Child: async-signal-safe calls only until exec. Two solver slots over
      // two pool threads keep four daemon threads busy; at a lower priority
      // they still get every idle cycle, but the load generator and the
      // response reader, which mostly sleep, run the moment they wake.
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      ::setpriority(PRIO_PROCESS, 0, kDaemonNice);
      ::dup2(fds[1], STDOUT_FILENO);
      ::execv(argv[0], argv.data());
      ::_exit(127);
    }
    ::close(fds[1]);  // so a daemon that dies shows up as end of stream
    if (pid_ < 0) throw std::runtime_error("fork failed");
    try {
      wait_for("listening on", timeout_seconds);
    } catch (...) {
      stop();
      throw;
    }
  }

  ~Daemon() { stop(); }

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  std::string pid() const { return std::to_string(pid_); }

  /// Stops the daemon; returns its exit status (0 after a clean drain,
  /// 128+signal when it had to be killed).
  int stop() {
    if (pid_ <= 0) return status_;
    ::kill(pid_, SIGTERM);
    int status = 0;
    for (int i = 0; i < 2000; ++i) {  // up to 20 s for the drain
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        status_ = WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
        return status_;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, &status, 0);
    pid_ = -1;
    status_ = 128 + SIGKILL;
    return status_;
  }

 private:
  void wait_for(const std::string& marker, double timeout_seconds) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::duration<double>(timeout_seconds);
    std::string text;
    char buffer[4096];
    while (text.find(marker) == std::string::npos) {
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - std::chrono::steady_clock::now());
      if (left.count() <= 0) throw std::runtime_error("daemon did not start listening");
      pollfd pfd{out_.get(), POLLIN, 0};
      if (::poll(&pfd, 1, static_cast<int>(left.count())) <= 0) continue;
      const ssize_t got = ::read(out_.get(), buffer, sizeof(buffer));
      if (got <= 0) throw std::runtime_error("daemon exited before listening: " + text);
      text.append(buffer, static_cast<std::size_t>(got));
    }
  }

  Fd out_;
  pid_t pid_ = -1;
  int status_ = 0;
};

/// The benchmark's one connection to the daemon: newline-delimited JSON over a
/// Unix socket. The benchmark uses its own minimal client instead of
/// serve::ServeClient because open-loop latency needs the arrival time of
/// each response line, which ServeClient's futures do not expose.
class Connection {
 public:
  explicit Connection(const std::string& path) : fd_(::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0)) {
    if (fd_.get() < 0) throw std::runtime_error("socket() failed");
    sockaddr_un address{};
    address.sun_family = AF_UNIX;
    if (path.size() >= sizeof(address.sun_path)) {
      throw std::runtime_error("socket path too long: " + path);
    }
    std::memcpy(address.sun_path, path.c_str(), path.size() + 1);
    if (::connect(fd_.get(), reinterpret_cast<const sockaddr*>(&address),
                  sizeof(address)) != 0) {
      throw std::runtime_error("cannot connect to " + path);
    }
  }

  void send_line(const std::string& line) {
    const std::string framed = line + "\n";
    std::size_t sent = 0;
    while (sent < framed.size()) {
      const ssize_t n = ::send(fd_.get(), framed.data() + sent, framed.size() - sent,
                               MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) throw std::runtime_error("send to daemon failed");
      sent += static_cast<std::size_t>(n);
    }
  }

  /// Next response line; false at end of stream.
  bool read_line(std::string& line) {
    while (true) {
      const std::size_t newline = buffer_.find('\n');
      if (newline != std::string::npos) {
        line = buffer_.substr(0, newline);
        buffer_.erase(0, newline + 1);
        return true;
      }
      char chunk[65536];
      const ssize_t n = ::recv(fd_.get(), chunk, sizeof(chunk), 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }

  /// Wakes a reader blocked in read_line (it then sees end of stream).
  void shutdown() { ::shutdown(fd_.get(), SHUT_RDWR); }

 private:
  Fd fd_;
  std::string buffer_;
};

/// Response lines in arrival order, stamped when read. Parsing waits until
/// the measured phase is over, so it never delays the next line's stamp.
class Inbox {
 public:
  struct Arrival {
    double at = 0.0;
    std::string line;
  };

  void put(Arrival arrival) {
    {
      std::lock_guard lock(mutex_);
      arrivals_.push_back(std::move(arrival));
    }
    cv_.notify_all();
  }

  void close() {
    {
      std::lock_guard lock(mutex_);
      closed_ = true;
    }
    cv_.notify_all();
  }

  /// Blocks until more than `seen` responses arrived, the stream closed, or
  /// the timeout passed; returns the number that arrived.
  std::size_t wait_beyond(std::size_t seen, double timeout_seconds) {
    std::unique_lock lock(mutex_);
    cv_.wait_for(lock, std::chrono::duration<double>(timeout_seconds),
                 [&] { return arrivals_.size() > seen || closed_; });
    return arrivals_.size();
  }

  Arrival at(std::size_t i) {
    std::lock_guard lock(mutex_);
    return arrivals_[i];
  }

  std::size_t size() {
    std::lock_guard lock(mutex_);
    return arrivals_.size();
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<Arrival> arrivals_;
  bool closed_ = false;
};

/// Reads response lines into an Inbox on its own thread until the
/// connection ends; the destructor shuts the connection down and joins.
class Reader {
 public:
  Reader(Run& run, Connection& connection, Inbox& inbox)
      : connection_(connection), thread_([&run, &connection, &inbox] {
          Inbox::Arrival arrival;
          while (connection.read_line(arrival.line)) {
            arrival.at = run.trace.now();
            inbox.put(std::move(arrival));
          }
          inbox.close();
        }) {}

  ~Reader() {
    connection_.shutdown();
    thread_.join();
  }

  Reader(const Reader&) = delete;
  Reader& operator=(const Reader&) = delete;

 private:
  Connection& connection_;
  std::thread thread_;
};

/// Open-loop Poisson arrivals (phase A) then a 4-outstanding closed loop
/// (phase B) against a `subsel serve` daemon holding the CIFAR proxy.
class ServeOpenLoop final : public Workload {
 public:
  static constexpr std::size_t kInteractiveK = 500;
  static constexpr std::size_t kBatchK = 2000;
  static constexpr std::uint64_t kInteractiveDeadlineMs = 250;
  static constexpr std::uint64_t kBatchDeadlineMs = 2000;
  static constexpr std::size_t kOutstanding = 4;
  static constexpr double kPhaseAShare = 0.7;
  static constexpr double kSpinSeconds = 0.002;
  // Phase A's arrival rate, frozen at calibration: half the measured phase-B
  // capacity (34.5 req/s), rounded down to a multiple of 5.
  static constexpr double kRateHz = 15.0;
  static constexpr double kRatioFloor = 0.82;

  double ratio_floor() const override { return kRatioFloor; }

  explicit ServeOpenLoop(const Options& options)
      : prefix_(options.work_dir + "/cifar100_proxy"),
        socket_(options.work_dir + "/serve.sock") {}

  void setup(Run& run) override {
    daemon_.reset();
    {
      const data::Dataset dataset = build_dataset(run, kCifar);
      save_dataset_step(run, dataset, prefix_);
    }
    setup_step(run, "serve.start_s", "serve.start", [&] {
      daemon_ = std::make_unique<Daemon>(
          std::vector<std::string>{run.options.cli, "serve", "--socket=" + socket_,
                                   "--data=cifar=" + prefix_, "--max-concurrent=2",
                                   "--threads=2"},
          60.0);
    });
  }

  void prepare(Run& run) override {
    run.sizes = {{"points", kCifar.points},       {"dim", kCifar.dim},
                 {"classes", kCifar.classes},     {"interactive_k", kInteractiveK},
                 {"batch_k", kBatchK},            {"rate_hz", kRateHz},
                 {"outstanding_phase_b", kOutstanding}, {"daemon_threads", 2},
                 {"daemon_max_concurrent", 2},
                 {"objective_ratio_floor", kRatioFloor}};
    const data::Dataset dataset = data::load_dataset(prefix_);
    const graph::InMemoryGroundSet memory(dataset.graph, dataset.utilities);
    reference_[0] = reference_objective(run, memory, "pairwise", kInteractiveK);
    reference_[1] = reference_objective(run, memory, "facility-location", kBatchK);
    points_ = dataset.size();
    run.layer["graph.edges"] = static_cast<double>(dataset.graph.num_edges());
    if (run.trace.enabled()) {
      run.layer["graph.knn_recall10"] =
          knn_recall10(run, dataset.embeddings, dataset.graph);
    }
    probe_pread(prefix_ + ".graph", run.options.seed, run.probe);
  }

  void measure(Run& run) override {
    Connection connection(socket_);
    Inbox inbox;
    std::vector<Sent> sent;
    {
      Reader reader(run, connection, inbox);

      // Phase A: Poisson-like arrivals, drawn before the first send. The
      // n = rate x duration exponential gaps are stratified (the midpoints of
      // n equal-probability slices of Exp(rate)) and exactly half the
      // requests are interactive; the seed shuffles both. Seeds then differ
      // in the order of arrivals, not in how many arrive or how bursty the
      // gaps are, which would otherwise swing the latency tail run to run.
      const double rate = kRateHz;
      const auto count = static_cast<std::size_t>(
          std::llround(rate * run.options.seconds * kPhaseAShare));
      std::vector<double> gaps(count);
      std::vector<bool> classes(count);
      for (std::size_t j = 0; j < count; ++j) {
        gaps[j] = -std::log(1.0 - (static_cast<double>(j) + 0.5) /
                                      static_cast<double>(count)) /
                  rate;
        classes[j] = j % 2 == 0;
      }
      std::mt19937_64 rng(run.options.seed * 7919 + 17);
      std::shuffle(gaps.begin(), gaps.end(), rng);
      std::shuffle(classes.begin(), classes.end(), rng);
      double due = run.trace.now() + 0.01;
      for (std::size_t j = 0; j < count; ++j) {
        due += gaps[j];
        // Timer wake-ups on a virtual machine can run milliseconds late, so
        // sleep to just before the due time and spin the rest.
        std::this_thread::sleep_until(run.trace.time_point(due - kSpinSeconds));
        while (run.trace.now() < due) {
        }
        send(run, connection, sent, classes[j], due, true);
      }
      std::size_t seen = wait_all(inbox, sent.size(), run);

      // Phase B: closed loop, kOutstanding requests in flight, classes
      // alternating.
      const double start_b = run.trace.now();
      const double end_b = start_b + run.options.seconds * (1.0 - kPhaseAShare);
      std::size_t outstanding = 0;
      for (; outstanding < kOutstanding; ++outstanding) {
        send(run, connection, sent, sent.size() % 2 == 0, run.trace.now(), false);
      }
      while (outstanding > 0) {
        const std::size_t now_seen = inbox.wait_beyond(seen, 30.0);
        if (now_seen == seen) {
          run.check_run(false, "serve: no response within 30 s in phase B");
          break;
        }
        for (; seen < now_seen; ++seen) {
          --outstanding;
          if (run.trace.now() < end_b) {
            send(run, connection, sent, sent.size() % 2 == 0, run.trace.now(),
                 false);
            ++outstanding;
          }
        }
      }
      phase_b_seconds_ = run.trace.now() - start_b;

      // Final stats request: the daemon's own counter audit.
      serve::ServeRequest stats;
      stats.kind = serve::ServeRequest::Kind::kStats;
      stats.id = "stats";
      connection.send_line(stats.to_json());
      if (inbox.wait_beyond(seen, 30.0) == seen) {
        run.check_run(false, "serve: no answer to the stats request");
      }
      daemon_peak_rss_ = proc_status_bytes(daemon_->pid(), "VmHWM");
    }
    const int status = daemon_->stop();
    run.check_run(status == 0,
                  "serve: daemon exited with status " + std::to_string(status));
    summarize(run, inbox, sent);
  }

 private:
  struct Sent {
    std::string id;
    bool interactive = false;
    bool phase_a = false;
    double due = 0.0;   // scheduled send time (phase B: the actual send)
    double sent = 0.0;
    std::string line;
  };

  void send(Run& run, Connection& connection, std::vector<Sent>& sent,
            bool interactive, double due, bool phase_a) {
    serve::ServeRequest request;
    request.id = (phase_a ? "a" : "b") + std::to_string(sent.size());
    request.priority =
        interactive ? serve::Priority::kInteractive : serve::Priority::kBatch;
    request.deadline_ms = interactive ? kInteractiveDeadlineMs : kBatchDeadlineMs;
    request.dataset = "cifar";
    request.k = interactive ? kInteractiveK : kBatchK;
    request.solver = "distributed-greedy";
    request.objective = interactive ? "pairwise" : "facility-location";
    request.alpha = kAlpha;
    request.seed = run.options.seed;
    request.machines = 8;
    request.rounds = 8;
    request.bounding = "none";
    request.return_selection = true;
    Sent record{request.id, interactive, phase_a, due, 0.0, request.to_json()};
    record.sent = run.trace.now();
    connection.send_line(record.line);
    sent.push_back(std::move(record));
  }

  static std::size_t wait_all(Inbox& inbox, std::size_t expected, Run& run) {
    std::size_t seen = inbox.size();
    while (seen < expected) {
      const std::size_t now_seen = inbox.wait_beyond(seen, 30.0);
      if (now_seen == seen) {
        run.check_run(false, "serve: no response within 30 s in phase A");
        break;
      }
      seen = now_seen;
    }
    return seen;
  }

  void summarize(Run& run, Inbox& inbox, const std::vector<Sent>& sent) {
    struct Received {
      double at = 0.0;
      serve::ParsedResponse response;
    };
    std::unordered_map<std::string, Received> by_id;
    std::optional<serve::ParsedResponse> stats;
    for (std::size_t i = 0; i < inbox.size(); ++i) {
      const Inbox::Arrival arrival = inbox.at(i);
      serve::ParsedResponse response;
      try {
        response = serve::parse_response(arrival.line);
      } catch (const std::exception& e) {
        run.check_run(false, std::string("serve: unparseable response: ") + e.what());
        continue;
      }
      if (response.id == "stats") {
        stats = std::move(response);
      } else {
        response.document = {};  // keep the lifted fields only
        std::string id = response.id;
        by_id.emplace(std::move(id), Received{arrival.at, std::move(response)});
      }
    }

    std::vector<double> latency_a, interactive_a, queue, solve, report, transport,
        late;
    std::array<std::vector<double>, 2> ratios;  // per class, as reference_
    std::size_t completed_b = 0;
    for (std::size_t i = 0; i < sent.size(); ++i) {
      const Sent& request = sent[i];
      const auto it = by_id.find(request.id);
      if (it == by_id.end()) {
        ++run.failed_ops;
        run.failures.push_back("serve: no response to " + request.id);
        continue;
      }
      const double at = it->second.at;
      const serve::ParsedResponse& response = it->second.response;
      const serve::LatencyBreakdown& breakdown = response.latency;
      if (request.phase_a) {
        latency_a.push_back(at - request.due);
        if (request.interactive) interactive_a.push_back(at - request.due);
        late.push_back(request.sent - request.due);
      }
      queue.push_back(breakdown.queue_seconds);
      solve.push_back(breakdown.solve_seconds);
      report.push_back(breakdown.report_seconds);
      const double rtt = at - request.sent;
      transport.push_back(rtt - breakdown.total_seconds);
      trace_request(run, request, at, breakdown, static_cast<long>(i));
      if (!response.has_selection()) {
        ++run.failed_ops;  // rejected or error: a failed op, not a wrong answer
        continue;
      }
      const std::string error = selection_error(
          response.selected, points_, request.interactive ? kInteractiveK : kBatchK,
          response.degraded());
      if (!error.empty()) {
        run.failures.push_back("serve " + request.id + ": " + error);
      }
      if (!error.empty() || response.degraded()) {
        ++run.failed_ops;
        continue;
      }
      const std::size_t cls = request.interactive ? 0 : 1;
      ratios[cls].push_back(response.objective / reference_[cls]);
      if (!request.phase_a) ++completed_b;
    }

    run.attempted = sent.size();
    run.e2e["op_p50_s"] = percentile(latency_a, 50.0);
    run.samples["op_p50_s"] = latency_a.size();
    run.e2e["throughput_ops_s"] =
        phase_b_seconds_ > 0.0 ? static_cast<double>(completed_b) / phase_b_seconds_ : 0.0;
    run.samples["throughput_ops_s"] = completed_b;
    // Classes weigh equally, so how many of each completed cannot move it.
    run.e2e["objective_ratio"] = (mean(ratios[0]) + mean(ratios[1])) / 2.0;
    run.e2e["rss_peak_mb"] = static_cast<double>(daemon_peak_rss_) / 1e6;

    auto& layer = run.layer;
    layer["serve.queue_p50_s"] = percentile(queue, 50.0);
    layer["serve.queue_p90_s"] = percentile(queue, 90.0);
    layer["serve.solve_p50_s"] = percentile(solve, 50.0);
    layer["serve.report_p50_s"] = percentile(report, 50.0);
    layer["serve.transport_p50_s"] = percentile(transport, 50.0);
    layer["serve.interactive_p90_s"] = percentile(interactive_a, 90.0);
    run.samples["serve.interactive_p90_s"] = interactive_a.size();
    const double gen_late = percentile(late, 99.0);
    layer["serve.gen_late_p99_s"] = gen_late;
    if (gen_late > kMaxGeneratorLateSeconds) {
      run.void_reason = "generator p99 lateness " + std::to_string(gen_late) +
                        " s exceeds 5 ms";
    }
    if (run.trace.enabled()) {
      const serve::ParseLimits limits;
      std::vector<double> parse_us;
      for (const Sent& request : sent) {
        const auto start = std::chrono::steady_clock::now();
        const serve::ServeRequest parsed = serve::parse_request(request.line, limits);
        parse_us.push_back(std::chrono::duration<double, std::micro>(
                               std::chrono::steady_clock::now() - start)
                               .count());
        if (parsed.id != request.id) run.check_run(false, "serve: parse probe mismatch");
      }
      layer["serve.parse_us"] = median(parse_us);
    }

    run.check_run(by_id.size() == sent.size(),
                  "serve: " + std::to_string(by_id.size()) + " responses for " +
                      std::to_string(sent.size()) + " requests");
    if (!stats.has_value() || stats->document.find("server") == nullptr) {
      run.check_run(false, "serve: stats response missing");
      return;
    }
    const serve::JsonValue& server = *stats->document.find("server");
    const auto counter = [&server](const char* name) {
      const serve::JsonValue* value = server.find(name);
      return value != nullptr && value->is_number() ? value->as_number() : -1.0;
    };
    const double accepted = counter("accepted");
    run.check_run(accepted == counter("completed") + counter("degraded") + counter("errors"),
                  "serve: counter audit failed (accepted != completed + degraded + errors)");
    // A rejected request is a failed op (counted above), not a wrong answer;
    // the check is that every request was either accepted or rejected.
    run.check_run(accepted + counter("rejected") == static_cast<double>(sent.size()),
                  "serve: daemon accepted " + std::to_string(accepted) + " and rejected " +
                      std::to_string(counter("rejected")) + " of " +
                      std::to_string(sent.size()) + " requests");
    layer["serve.queue_depth_hw"] = counter("queue_depth_high_water");
    layer["serve.expired_in_queue"] = counter("expired_in_queue");
    layer["serve.degraded"] = counter("degraded");
    layer["serve.rejected"] = counter("rejected");
  }

  /// Request span from due time to receipt, with derived children placed
  /// from the server's latency breakdown; the transport legs split the
  /// round trip the server did not account for evenly in both directions.
  static void trace_request(Run& run, const Sent& request, double at,
                            const serve::LatencyBreakdown& breakdown, long op) {
    if (!run.trace.enabled()) return;
    const int root = run.trace.add("bench.op", request.due, at, -1, op, false);
    run.trace.add("serve.gen_late", request.due, request.sent, root, op, true);
    const double leg = std::max(0.0, (at - request.sent) - breakdown.total_seconds) / 2.0;
    double cursor = request.sent;
    run.trace.add("serve.transport", cursor, cursor + leg, root, op, true);
    cursor += leg;
    const double admitted = cursor;
    run.trace.add("serve.queue", cursor, cursor + breakdown.queue_seconds, root, op, true);
    cursor += breakdown.queue_seconds;
    run.trace.add("serve.solve", cursor, cursor + breakdown.solve_seconds, root, op, true);
    cursor += breakdown.solve_seconds;
    run.trace.add("serve.report", cursor, cursor + breakdown.report_seconds, root, op, true);
    run.trace.add("serve.transport", admitted + breakdown.total_seconds, at, root, op,
                  true);
  }

  std::string prefix_;
  std::string socket_;
  std::unique_ptr<Daemon> daemon_;
  std::array<double, 2> reference_{};  // interactive (pairwise), batch (facility)
  std::size_t points_ = 0;
  double phase_b_seconds_ = 0.0;
  std::size_t daemon_peak_rss_ = 0;
};

std::unique_ptr<Workload> make_workload(const Options& options) {
  if (options.workload == "ingest_bound") return std::make_unique<IngestBound>();
  if (options.workload == "rounds_mem") return std::make_unique<RoundsMem>();
  if (options.workload == "disk_ooc") return std::make_unique<DiskOoc>(options);
  if (options.workload == "serve_open_loop") return std::make_unique<ServeOpenLoop>(options);
  throw std::invalid_argument(
      "--workload must be ingest_bound, rounds_mem, disk_ooc or serve_open_loop");
}

// ---------------------------------------------------------------------------
// Output.
// ---------------------------------------------------------------------------

/// {"name": {"value", "unit"[, "samples"]}, ...}; sample counts are added
/// when `samples` is given.
void write_metrics(JsonWriter& json, std::span<const MetricDef> defs,
                   const std::map<std::string, double>& values,
                   const std::map<std::string, std::size_t>* samples) {
  json.begin_object();
  for (const MetricDef& def : defs) {
    json.key(def.name).begin_object();
    json.key("value").value(values.at(def.name));
    json.key("unit").value(def.unit);
    if (samples != nullptr) {
      if (const auto it = samples->find(def.name); it != samples->end()) {
        json.key("samples").value(it->second);
      }
    }
    json.end_object();
  }
  json.end_object();
}

void write_manifest(JsonWriter& json, const Run& run) {
  const Options& options = run.options;
  json.begin_object();
  json.key("commit").value(options.commit);
  json.key("dirty").value(options.dirty);
  json.key("source_hash").value(options.source_hash);
  json.key("compiler").value(E2E_COMPILER);
  json.key("build_type").value(E2E_BUILD_TYPE);
  json.key("cxx_flags").value(E2E_CXX_FLAGS);
  json.key("nproc").value(cpu_count());
  json.key("pool_threads").value(run.pool.size());
  json.key("simd_backend").value(simd::active_backend_name());
  json.key("workload").value(options.workload);
  json.key("seed").value(options.seed);
  json.key("seconds").value(options.seconds);
  json.key("setup_repetitions").value(kSetupRepetitions);
  json.key("sizes").begin_object();
  for (const auto& [name, value] : run.sizes) json.key(name).value(value);
  json.end_object();
  json.key("probe").begin_object();
  json.key("llc_bytes").value(run.probe.llc_bytes);
  json.key("triad_bytes").value(run.probe.triad_bytes);
  json.key("triad_gbs").value(run.probe.triad_gbs);
  json.key("pread_file").value(run.probe.pread_file);
  json.key("pread_4k_us").value(run.probe.pread_4k_us);
  json.key("pread_block_bytes").value(run.probe.block_bytes);
  json.key("pread_block_us").value(run.probe.pread_block_us);
  json.end_object();
  json.key("peak_rss_reset").value(run.peak_rss_reset);
  json.end_object();
}

int run_benchmark(const Options& options) {
  set_log_level(LogLevel::kWarn);
  // glibc raises its mmap threshold each time a large mmapped block is freed,
  // so whether an op's big buffers land in the heap (and stay resident)
  // would depend on the history of earlier ops, and peak RSS would jump
  // between runs. Pinning the threshold at its initial default keeps it
  // history-free.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  std::filesystem::create_directories(options.work_dir);
  const std::unique_ptr<Workload> workload = make_workload(options);
  Run run(options);
  probe_triad(run.pool, run.probe);

  for (int rep = 0; rep < kSetupRepetitions; ++rep) {
    ScopedSpan span(run.trace, "bench.setup");
    run.setup_span = span.id();
    workload->setup(run);
    run.setup_seconds.push_back(span.stop());
  }
  run.setup_span = -1;
  {
    ScopedSpan span(run.trace, "bench.prepare");
    workload->prepare(run);
  }
  run.peak_rss_reset = start_peak_rss_window();
  workload->measure(run);
  run.check_run(run.e2e["objective_ratio"] >= workload->ratio_floor(),
                "objective_ratio " + std::to_string(run.e2e["objective_ratio"]) +
                    " is below the workload's floor " +
                    std::to_string(workload->ratio_floor()));

  const std::size_t failed = run.failed_ops + run.run_failures;
  run.e2e["setup_s"] = median(run.setup_seconds);
  run.samples["setup_s"] = run.setup_seconds.size();
  run.e2e["ok_frac"] =
      run.attempted == 0
          ? 0.0
          : 1.0 - std::min(1.0, static_cast<double>(failed) /
                                    static_cast<double>(run.attempted));
  for (const auto& [name, values] : run.setup_parts) {
    run.layer.emplace(name, median(values));  // ops may already have set it
  }
  for (const MetricDef& def : kPerLayer) run.layer.emplace(def.name, 0.0);
  if (run.attempted == 0) run.failures.push_back("no op completed in the measured phase");
  const bool correct = run.failures.empty();

  // Human-readable lines.
  for (const MetricDef& def : kEndToEnd) {
    std::printf("%s %s %.6g %s", options.workload.c_str(), def.name, run.e2e.at(def.name),
                def.unit);
    if (const auto it = run.samples.find(def.name); it != run.samples.end()) {
      std::printf(" n=%zu", it->second);
    }
    std::printf("%s\n", options.trace ? " (traced)" : "");
  }
  std::map<std::string, double> self_by_layer;
  if (options.trace) {
    for (const MetricDef& def : kPerLayer) {
      std::printf("%s %s %.6g %s\n", options.workload.c_str(), def.name,
                  run.layer.at(def.name), def.unit);
    }
    self_by_layer = run.trace.self_seconds_by_layer();
    double total = 0.0;
    for (const auto& [layer, seconds] : self_by_layer) total += seconds;
    std::printf("self time by layer over the measured phase (%s):\n",
                options.workload.c_str());
    for (const auto& [layer, seconds] : self_by_layer) {
      std::printf("  %-10s %10.4f s %6.1f%%\n", layer.c_str(), seconds,
                  total > 0.0 ? 100.0 * seconds / total : 0.0);
    }
  }
  for (const std::string& failure : run.failures) {
    std::fprintf(stderr, "check failed: %s\n", failure.c_str());
  }
  if (!run.void_reason.empty()) {
    std::fprintf(stderr, "run void: %s\n", run.void_reason.c_str());
  }

  // Results file (+ Chrome trace when traced).
  if (!options.results.empty()) {
    JsonWriter json;
    json.begin_object();
    json.key("schema").value("subsel.bench_e2e.v1");
    json.key("manifest");
    write_manifest(json, run);
    json.key("workload").value(options.workload);
    json.key("traced").value(options.trace);
    json.key("void").value(run.void_reason);
    json.key("correct").value(correct);
    json.key("attempted").value(run.attempted);
    json.key("failed").value(failed);
    json.key("failures").begin_array();
    for (const std::string& failure : run.failures) json.value(failure);
    json.end_array();
    json.key("end_to_end");
    write_metrics(json, kEndToEnd, run.e2e, &run.samples);
    json.key("per_layer");
    write_metrics(json, kPerLayer, run.layer, &run.samples);
    json.key("computed").begin_array();
    for (const char* name : kComputed) json.value(name);
    json.end_array();
    json.key("setup_seconds").begin_array();
    for (double seconds : run.setup_seconds) json.value(seconds);
    json.end_array();
    json.key("self_seconds_by_layer").begin_object();
    for (const auto& [layer, seconds] : self_by_layer) json.key(layer).value(seconds);
    json.end_object();
    json.end_object();
    std::ofstream(options.results, std::ios::trunc) << json.str() << '\n';
    if (options.trace) {
      std::ofstream(options.results + ".trace.json", std::ios::trunc)
          << run.trace.chrome_json() << '\n';
    }
  }

  // The last stdout line: the benchmark contract's result object.
  JsonWriter result;
  result.begin_object();
  result.key("correct").value(correct);
  result.key("attempted").value(run.attempted);
  result.key("failed").value(failed);
  result.key("metrics");
  if (options.trace) {
    write_metrics(result, kPerLayer, run.layer, nullptr);
  } else {
    write_metrics(result, kEndToEnd, run.e2e, nullptr);
  }
  result.end_object();
  std::printf("%s\n", result.str().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  try {
    options = parse_options(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2e_bench: %s\n", e.what());
    return 2;
  }
  try {
    return run_benchmark(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2e_bench: %s: %s\n", options.workload.c_str(), e.what());
    return 3;
  }
}
