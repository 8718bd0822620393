// Open-loop load generator for the selection daemon (`subsel serve`).
//
// Arrivals are Poisson (seeded exponential inter-arrival gaps) and OPEN
// loop: the generator never waits for a response before sending the next
// request, so a server that falls behind faces a growing backlog exactly
// like production traffic — closed-loop generators hide overload by
// self-throttling (coordinated omission). Each sweep point offers a fixed
// arrival rate for a fixed request count, split across the two priority
// classes with per-class deadlines, and reports per-class throughput and
// p50/p95/p99 end-to-end latency plus the server-reported outcome mix.
//
// Two transports, same protocol:
//   default          in-process: SelectionServer::submit on a ground set
//                    registered directly (no socket, no daemon)
//   --socket=PATH    drives a running `subsel serve` daemon through
//                    ServeClient (--dataset names one of its datasets)
//
// Output: BENCH_serving.json (schema subsel.bench_serving.v1), also mirrored
// as one CSV row per (rate, class) to bench_results/serving_load.csv.
//
//   serving_load [--rates=40,80,160] [--requests=N] [--k=N] [--points=N]
//                [--interactive-deadline-ms=N] [--batch-deadline-ms=N]
//                [--interactive-share=F] [--max-concurrent=N]
//                [--queue-capacity=N] [--solver=NAME] [--seed=N]
//                [--socket=PATH --dataset=NAME] [--out=FILE]
#include "bench_util.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <fstream>
#include <memory>
#include <mutex>
#include <random>
#include <thread>

#include "common/json.h"
#include "common/stats.h"
#include "graph/ground_set.h"
#include "serve/client.h"
#include "serve/server.h"
#include "serve/wire.h"

using namespace subsel;
using namespace subsel::bench;

namespace {

/// Outcome tallies + latency samples for one (rate, class) cell.
struct ClassResult {
  std::size_t offered = 0;
  std::size_t completed = 0;
  std::size_t degraded = 0;
  std::size_t rejected = 0;
  std::size_t errors = 0;
  std::vector<double> latencies;  // total_seconds of answered requests
};

struct SweepResult {
  double rate_hz = 0.0;
  double elapsed_seconds = 0.0;
  ClassResult per_class[serve::kNumPriorities];
};

/// Collects responses across transports; the generator thread blocks on
/// wait() after the last send.
class Collector {
 public:
  explicit Collector(std::size_t expected) : expected_(expected) {}

  void record(serve::Priority priority, const std::string& status,
              double total_seconds) {
    std::lock_guard lock(mutex_);
    ClassResult& result = per_class_[static_cast<std::size_t>(priority)];
    if (status == "complete") {
      ++result.completed;
      result.latencies.push_back(total_seconds);
    } else if (status == "degraded") {
      ++result.degraded;
      result.latencies.push_back(total_seconds);
    } else if (status == "rejected") {
      ++result.rejected;
    } else {
      ++result.errors;
    }
    if (++received_ == expected_) done_.notify_all();
  }

  void wait() {
    std::unique_lock lock(mutex_);
    done_.wait(lock, [this] { return received_ >= expected_; });
  }

  ClassResult take(serve::Priority priority) {
    std::lock_guard lock(mutex_);
    return std::move(per_class_[static_cast<std::size_t>(priority)]);
  }

 private:
  const std::size_t expected_;
  std::mutex mutex_;
  std::condition_variable done_;
  std::size_t received_ = 0;
  ClassResult per_class_[serve::kNumPriorities];
};

struct SweepSpec {
  double rate_hz = 0.0;
  std::size_t requests = 0;
  double interactive_share = 0.5;
  std::uint64_t interactive_deadline_ms = 0;
  std::uint64_t batch_deadline_ms = 0;
  std::uint64_t seed = 0;
  std::string dataset;
  std::string solver;
  std::size_t k = 0;
};

serve::ServeRequest make_request(const SweepSpec& spec, std::size_t index,
                                 serve::Priority priority) {
  serve::ServeRequest request;
  request.id = "load-" + std::to_string(spec.seed) + "-" + std::to_string(index);
  request.priority = priority;
  request.deadline_ms = priority == serve::Priority::kInteractive
                            ? spec.interactive_deadline_ms
                            : spec.batch_deadline_ms;
  request.dataset = spec.dataset;
  request.k = spec.k;
  request.solver = spec.solver;
  // Identical parameters per class keep responses comparable across the
  // sweep; latency payload stays small with the id echo off.
  request.seed = 23;
  request.return_selection = false;
  return request;
}

/// Offers `spec.requests` arrivals at `spec.rate_hz` and blocks until every
/// response arrived. `send` dispatches one request through the transport.
template <typename Send>
SweepResult run_sweep(const SweepSpec& spec, Send&& send) {
  Collector collector(spec.requests);
  std::mt19937_64 rng(spec.seed);
  std::exponential_distribution<double> gap(spec.rate_hz);
  std::bernoulli_distribution interactive(spec.interactive_share);

  SweepResult result;
  result.rate_hz = spec.rate_hz;
  Timer elapsed;
  auto next_arrival = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < spec.requests; ++i) {
    next_arrival += std::chrono::duration_cast<
        std::chrono::steady_clock::duration>(
        std::chrono::duration<double>(gap(rng)));
    std::this_thread::sleep_until(next_arrival);
    const auto priority = interactive(rng) ? serve::Priority::kInteractive
                                           : serve::Priority::kBatch;
    ++result.per_class[static_cast<std::size_t>(priority)].offered;
    send(make_request(spec, i, priority), priority, collector);
  }
  collector.wait();
  result.elapsed_seconds = elapsed.elapsed_seconds();
  for (std::size_t c = 0; c < serve::kNumPriorities; ++c) {
    const auto offered = result.per_class[c].offered;
    result.per_class[c] = collector.take(static_cast<serve::Priority>(c));
    result.per_class[c].offered = offered;
  }
  return result;
}

void emit_class_json(JsonWriter& json, const SweepResult& sweep,
                     serve::Priority priority, ClassResult& result) {
  json.begin_object();
  json.key("class").value(serve::priority_name(priority));
  json.key("offered").value(result.offered);
  json.key("completed").value(result.completed);
  json.key("degraded").value(result.degraded);
  json.key("rejected").value(result.rejected);
  json.key("errors").value(result.errors);
  json.key("answered_throughput_hz")
      .value(sweep.elapsed_seconds > 0.0
                 ? static_cast<double>(result.completed + result.degraded) /
                       sweep.elapsed_seconds
                 : 0.0);
  json.key("latency_seconds").begin_object();
  json.key("p50").value(percentile(result.latencies, 50.0));
  json.key("p95").value(percentile(result.latencies, 95.0));
  json.key("p99").value(percentile(result.latencies, 99.0));
  json.key("max").value(result.latencies.empty() ? 0.0
                                                 : result.latencies.back());
  json.end_object();
  json.end_object();
}

std::vector<double> parse_rates(const std::string& spec) {
  std::vector<double> rates;
  std::size_t start = 0;
  while (start <= spec.size()) {
    const std::size_t comma = spec.find(',', start);
    const std::string token =
        spec.substr(start, comma == std::string::npos ? comma : comma - start);
    if (!token.empty()) rates.push_back(std::atof(token.c_str()));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return rates;
}

}  // namespace

int main(int argc, char** argv) {
  Args args(argc, argv);
  const auto rates = parse_rates(args.get_string("rates", "40,80,160"));
  const std::size_t requests = args.get_size("requests", 120);
  const std::size_t points = args.get_size("points", 2000);
  const std::size_t k = args.get_size("k", 50);
  const std::string solver = args.get_string("solver", "distributed-greedy");
  const std::uint64_t seed = args.get_size("seed", 7);
  const std::string socket_path = args.get_string("socket", "");
  const std::string out = args.get_string("out", "BENCH_serving.json");

  SweepSpec spec;
  spec.requests = requests;
  spec.interactive_share = args.get_double("interactive-share", 0.5);
  spec.interactive_deadline_ms = args.get_size("interactive-deadline-ms", 400);
  spec.batch_deadline_ms = args.get_size("batch-deadline-ms", 2000);
  spec.solver = solver;
  spec.k = k;

  // In-process mode owns its server + toy ground set; socket mode drives a
  // daemon someone else started.
  std::unique_ptr<data::Dataset> dataset;
  std::unique_ptr<graph::InMemoryGroundSet> ground_set;
  std::unique_ptr<serve::SelectionServer> server;
  std::unique_ptr<serve::ServeClient> client;
  if (socket_path.empty()) {
    spec.dataset = "toy";
    dataset = std::make_unique<data::Dataset>(
        data::toy_dataset(points, 10, 42));
    ground_set = std::make_unique<graph::InMemoryGroundSet>(
        dataset->graph, dataset->utilities);
    serve::ServerConfig config;
    config.queue_capacity = args.get_size("queue-capacity", 256);
    config.max_concurrent = args.get_size("max-concurrent", 2);
    server = std::make_unique<serve::SelectionServer>(config);
    server->register_ground_set(spec.dataset, ground_set.get());
  } else {
    spec.dataset = args.get_string("dataset", "toy");
    client = std::make_unique<serve::ServeClient>(socket_path);
  }

  std::printf("=== Serving load: open-loop Poisson, %zu requests/rate,"
              " %s transport, solver=%s, k=%zu ===\n",
              requests, socket_path.empty() ? "in-process" : "socket",
              solver.c_str(), k);
  std::printf("deadlines: interactive %llu ms, batch %llu ms\n",
              static_cast<unsigned long long>(spec.interactive_deadline_ms),
              static_cast<unsigned long long>(spec.batch_deadline_ms));

  CsvWriter csv(results_dir() + "/serving_load.csv",
                {"rate_hz", "class", "offered", "completed", "degraded",
                 "rejected", "errors", "p50_s", "p95_s", "p99_s"});

  JsonWriter json;
  json.begin_object();
  json.key("schema").value("subsel.bench_serving.v1");
  json.key("schema_version").value(serve::kServeSchemaVersion);
  json.key("config").begin_object();
  json.key("transport").value(socket_path.empty() ? "in-process" : "socket");
  json.key("requests_per_rate").value(requests);
  json.key("points").value(points);
  json.key("k").value(k);
  json.key("solver").value(solver);
  json.key("dataset").value(spec.dataset);
  json.key("interactive_share").value(spec.interactive_share);
  json.key("interactive_deadline_ms").value(spec.interactive_deadline_ms);
  json.key("batch_deadline_ms").value(spec.batch_deadline_ms);
  json.key("seed").value(seed);
  json.end_object();
  write_manifest(json, "requests_per_rate=" + std::to_string(requests) +
                           " points=" + std::to_string(points) +
                           " rates=" + args.get_string("rates", "40,80,160"));
  json.key("sweeps").begin_array();

  for (std::size_t r = 0; r < rates.size(); ++r) {
    spec.rate_hz = rates[r];
    // Distinct arrival pattern per rate, deterministic across runs.
    spec.seed = seed + 1000 * r;

    SweepResult sweep;
    if (server != nullptr) {
      sweep = run_sweep(spec, [&](serve::ServeRequest request,
                                  serve::Priority priority,
                                  Collector& collector) {
        server->submit(std::move(request),
                       [&collector, priority](serve::ServeResponse response) {
                         collector.record(priority, response.status_name(),
                                          response.latency.total_seconds);
                       });
      });
    } else {
      // One waiter thread per request keeps the generator loop open-loop
      // while futures resolve out of order.
      std::vector<std::thread> waiters;
      waiters.reserve(requests);
      sweep = run_sweep(spec, [&](serve::ServeRequest request,
                                  serve::Priority priority,
                                  Collector& collector) {
        auto future = client->submit(request);
        waiters.emplace_back(
            [future = std::move(future), priority, &collector]() mutable {
              try {
                const auto response = future.get();
                collector.record(priority, response.status,
                                 response.latency.total_seconds);
              } catch (const std::exception&) {
                collector.record(priority, "error", 0.0);
              }
            });
      });
      for (auto& waiter : waiters) waiter.join();
    }

    json.begin_object();
    json.key("rate_hz").value(sweep.rate_hz);
    json.key("elapsed_seconds").value(sweep.elapsed_seconds);
    json.key("classes").begin_array();
    for (std::size_t c = 0; c < serve::kNumPriorities; ++c) {
      const auto priority = static_cast<serve::Priority>(c);
      ClassResult& result = sweep.per_class[c];
      emit_class_json(json, sweep, priority, result);
      std::vector<double> sorted = result.latencies;
      csv.row(sweep.rate_hz, serve::priority_name(priority), result.offered,
              result.completed, result.degraded, result.rejected,
              result.errors, percentile(sorted, 50.0),
              percentile(sorted, 95.0), percentile(sorted, 99.0));
      std::printf("rate %6.1f/s %-12s offered %4zu -> %4zu complete,"
                  " %3zu degraded, %3zu rejected, %2zu errors |"
                  " p50 %s p95 %s p99 %s\n",
                  sweep.rate_hz, serve::priority_name(priority),
                  result.offered, result.completed, result.degraded,
                  result.rejected, result.errors,
                  format_duration(percentile(sorted, 50.0)).c_str(),
                  format_duration(percentile(sorted, 95.0)).c_str(),
                  format_duration(percentile(sorted, 99.0)).c_str());
    }
    json.end_array();
    json.end_object();
  }

  json.end_array();
  json.end_object();

  std::ofstream file(out, std::ios::trunc);
  file << json.str() << '\n';
  file.close();
  if (!file) {
    std::fprintf(stderr, "cannot write %s\n", out.c_str());
    return 2;
  }
  std::printf("wrote %s\n", out.c_str());
  return 0;
}
