#include "serve/server.h"

#include <stdexcept>
#include <utility>

#include "common/failpoint.h"
#include "core/bounding.h"
#include "data/dataset_io.h"

namespace subsel::serve {

SelectionServer::SelectionServer(const ServerConfig& config)
    : config_(config),
      pool_(config.pool_threads),
      queue_(config.queue_capacity) {
  for (const DatasetSpec& spec : config.datasets) {
    if (spec.name.empty()) {
      throw std::invalid_argument("ServerConfig: dataset with empty name");
    }
    if (datasets_.count(spec.name) != 0) {
      throw std::invalid_argument("ServerConfig: duplicate dataset \"" +
                                  spec.name + "\"");
    }
    ResidentDataset resident;
    resident.spec = spec;
    if (spec.disk) {
      auto scalars = data::load_dataset_scalars(spec.path);
      resident.disk = std::make_unique<graph::DiskGroundSet>(
          spec.path + ".graph", std::move(scalars.utilities), spec.cache);
      resident.ground_set = resident.disk.get();
    } else {
      resident.dataset =
          std::make_unique<data::Dataset>(data::load_dataset(spec.path));
      resident.memory = std::make_unique<graph::InMemoryGroundSet>(
          resident.dataset->graph, resident.dataset->utilities);
      resident.ground_set = resident.memory.get();
    }
    const std::size_t num_points = resident.ground_set->num_points();
    if (!spec.cost_file.empty()) {
      resident.costs = data::load_value_file(spec.cost_file, "cost");
      if (resident.costs.size() != num_points) {
        throw std::invalid_argument(
            "ServerConfig: cost file " + spec.cost_file + " has " +
            std::to_string(resident.costs.size()) + " entries for dataset \"" +
            spec.name + "\" of " + std::to_string(num_points) + " points");
      }
    }
    if (!spec.group_file.empty()) {
      resident.groups = data::load_group_file(spec.group_file);
      if (resident.groups.size() != num_points) {
        throw std::invalid_argument(
            "ServerConfig: group file " + spec.group_file + " has " +
            std::to_string(resident.groups.size()) + " entries for dataset \"" +
            spec.name + "\" of " + std::to_string(num_points) + " points");
      }
    }
    datasets_.emplace(spec.name, std::move(resident));
  }

  const std::size_t slots = std::max<std::size_t>(1, config.max_concurrent);
  contexts_.reserve(slots);
  dispatchers_.reserve(slots);
  for (std::size_t slot = 0; slot < slots; ++slot) {
    contexts_.push_back(std::make_unique<api::SolverContext>(&pool_));
  }
  for (std::size_t slot = 0; slot < slots; ++slot) {
    dispatchers_.emplace_back([this, slot] { dispatch_loop(slot); });
  }
}

SelectionServer::~SelectionServer() { shutdown(); }

void SelectionServer::register_ground_set(const std::string& name,
                                          const graph::GroundSet* ground_set) {
  if (ground_set == nullptr) {
    throw std::invalid_argument("register_ground_set: null ground set");
  }
  if (datasets_.count(name) != 0) {
    throw std::invalid_argument("register_ground_set: duplicate dataset \"" +
                                name + "\"");
  }
  ResidentDataset resident;
  resident.spec.name = name;
  resident.ground_set = ground_set;
  datasets_.emplace(name, std::move(resident));
}

void SelectionServer::begin_drain() { queue_.begin_drain(); }

void SelectionServer::shutdown() {
  begin_drain();
  if (stopped_.exchange(true)) return;
  for (std::thread& dispatcher : dispatchers_) dispatcher.join();
}

ServerCounters SelectionServer::counters() const {
  ServerCounters counters;
  counters.accepted = accepted_.load(std::memory_order_relaxed);
  counters.rejected = rejected_.load(std::memory_order_relaxed);
  counters.completed = completed_.load(std::memory_order_relaxed);
  counters.degraded = degraded_.load(std::memory_order_relaxed);
  counters.errors = errors_.load(std::memory_order_relaxed);
  counters.expired_in_queue = expired_in_queue_.load(std::memory_order_relaxed);
  for (std::size_t klass = 0; klass < kNumPriorities; ++klass) {
    counters.completed_by_class[klass] =
        completed_by_class_[klass].load(std::memory_order_relaxed);
  }
  counters.queue_depth = queue_.depth();
  counters.queue_depth_high_water = queue_.high_water();
  counters.inflight = inflight_.load(std::memory_order_relaxed);
  return counters;
}

std::vector<DatasetInfo> SelectionServer::dataset_infos() const {
  std::vector<DatasetInfo> infos;
  infos.reserve(datasets_.size());
  for (const auto& [name, resident] : datasets_) {
    infos.push_back(DatasetInfo{name, resident.ground_set->num_points(),
                                resident.disk != nullptr});
  }
  return infos;
}

const graph::GroundSet* SelectionServer::ground_set(const std::string& name) const {
  const auto it = datasets_.find(name);
  return it == datasets_.end() ? nullptr : it->second.ground_set;
}

ServeResponse SelectionServer::make_stats_response(const ServeRequest& request) const {
  ServeResponse response;
  response.id = request.id;
  response.status = ServeResponse::Status::kStats;
  response.datasets = dataset_infos();
  response.uptime_seconds = uptime_seconds();
  return response;
}

void SelectionServer::finish(const ResponseCallback& done, ServeResponse response,
                             const Timer* admitted) {
  if (SUBSEL_FAILPOINT_TRIGGERED("serve.respond")) {
    // The daemon's contract under faults: a typed error response for THIS
    // request, normal service for every other. Keep the id and whatever
    // latency was already measured; drop the payload.
    ServeResponse error;
    error.id = std::move(response.id);
    error.status = ServeResponse::Status::kError;
    error.reason = "injected_fault";
    error.detail = "injected fault at failpoint serve.respond";
    error.dataset = std::move(response.dataset);
    error.priority = response.priority;
    error.latency = response.latency;
    response = std::move(error);
  }
  switch (response.status) {
    case ServeResponse::Status::kComplete:
      completed_.fetch_add(1, std::memory_order_relaxed);
      completed_by_class_[static_cast<std::size_t>(response.priority)]
          .fetch_add(1, std::memory_order_relaxed);
      break;
    case ServeResponse::Status::kDegraded:
      degraded_.fetch_add(1, std::memory_order_relaxed);
      break;
    case ServeResponse::Status::kRejected:
      rejected_.fetch_add(1, std::memory_order_relaxed);
      break;
    case ServeResponse::Status::kError:
      errors_.fetch_add(1, std::memory_order_relaxed);
      break;
    case ServeResponse::Status::kStats: break;
  }
  response.counters = counters();
  if (admitted != nullptr) {
    response.latency.total_seconds = admitted->elapsed_seconds();
  }
  done(std::move(response));
}

void SelectionServer::submit(ServeRequest request, ResponseCallback done) {
  if (request.kind == ServeRequest::Kind::kStats) {
    finish(done, make_stats_response(request), nullptr);
    return;
  }

  ServeResponse response;
  response.id = request.id;
  response.dataset = request.dataset;
  response.solver = request.solver;
  response.objective_name = request.objective;
  response.priority = request.priority;

  if (SUBSEL_FAILPOINT_TRIGGERED("serve.accept")) {
    response.status = ServeResponse::Status::kError;
    response.reason = "injected_fault";
    response.detail = "injected fault at failpoint serve.accept";
    finish(done, std::move(response), nullptr);
    return;
  }

  const auto it = datasets_.find(request.dataset);
  if (it == datasets_.end()) {
    response.status = ServeResponse::Status::kRejected;
    response.reason = "unknown_dataset";
    std::string known;
    for (const auto& [name, unused] : datasets_) {
      if (!known.empty()) known += ", ";
      known += name;
    }
    response.detail =
        "dataset \"" + request.dataset + "\" is not resident (known: " + known + ")";
    finish(done, std::move(response), nullptr);
    return;
  }
  const graph::GroundSet* ground_set = it->second.ground_set;

  auto item = std::make_unique<PendingRequest>();
  const std::uint64_t deadline_ms =
      request.deadline_ms > 0 ? request.deadline_ms : config_.default_deadline_ms;
  item->deadline =
      deadline_ms > 0 ? Deadline::after_ms(deadline_ms) : Deadline::unlimited();
  item->request = std::move(request);
  item->done = std::move(done);

  if (SUBSEL_FAILPOINT_TRIGGERED("serve.enqueue")) {
    response.status = ServeResponse::Status::kError;
    response.reason = "injected_fault";
    response.detail = "injected fault at failpoint serve.enqueue";
    finish(item->done, std::move(response), nullptr);
    return;
  }

  item->ground_set = ground_set;
  const std::string reject = queue_.try_push(item);
  if (!reject.empty()) {
    response.status = ServeResponse::Status::kRejected;
    response.reason = reject;
    response.detail = reject == "queue_full"
                          ? "admission queue at capacity (" +
                                std::to_string(queue_.capacity()) + ")"
                          : "server is draining; resubmit elsewhere";
    finish(item->done, std::move(response), nullptr);
    return;
  }
  accepted_.fetch_add(1, std::memory_order_relaxed);
}

std::future<ServeResponse> SelectionServer::submit(ServeRequest request) {
  auto promise = std::make_shared<std::promise<ServeResponse>>();
  std::future<ServeResponse> future = promise->get_future();
  submit(std::move(request),
         [promise](ServeResponse response) { promise->set_value(std::move(response)); });
  return future;
}

void SelectionServer::dispatch_loop(std::size_t slot) {
  api::SolverContext& context = *contexts_[slot];
  while (std::unique_ptr<PendingRequest> item = queue_.pop()) {
    inflight_.fetch_add(1, std::memory_order_relaxed);
    ServeResponse response =
        serve_select(context, *item, *item->ground_set);
    inflight_.fetch_sub(1, std::memory_order_relaxed);
    finish(item->done, std::move(response), &item->queued);
  }
}

ServeResponse SelectionServer::serve_select(api::SolverContext& context,
                                            PendingRequest& item,
                                            const graph::GroundSet& ground_set) {
  const ServeRequest& request = item.request;
  ServeResponse response;
  response.id = request.id;
  response.dataset = request.dataset;
  response.solver = request.solver;
  response.objective_name = request.objective;
  response.priority = request.priority;
  response.latency.queue_seconds = item.queued.elapsed_seconds();

  // The end-to-end budget covers the queue: a request that waited past its
  // deadline is answered now, without burning a solver slot on work the
  // client has already written off.
  if (item.deadline.expired()) {
    expired_in_queue_.fetch_add(1, std::memory_order_relaxed);
    response.status = ServeResponse::Status::kDegraded;
    response.reason = "queued_past_deadline";
    response.detail = "deadline expired after " +
                      std::to_string(static_cast<std::uint64_t>(
                          response.latency.queue_seconds * 1e3)) +
                      " ms in the admission queue";
    return response;
  }

  api::SelectionRequest selection;
  selection.ground_set = &ground_set;
  selection.k = request.k;
  selection.fraction = request.fraction;
  selection.objective_name = request.objective;
  selection.objective = core::ObjectiveParams::from_alpha(request.alpha);
  selection.facility_location.self_similarity = request.self_similarity;
  selection.facility_location.utility_weighted = request.utility_weighted;
  selection.coverage.saturation = request.saturation;
  selection.coverage.self_similarity = request.self_similarity;
  selection.coverage.utility_weighted = request.utility_weighted;
  selection.seed = request.seed;
  selection.solver = request.solver;
  selection.distributed.num_machines = request.machines;
  selection.distributed.num_rounds = request.rounds;
  selection.streaming.epsilon = request.epsilon;
  if (request.cost_budget > 0.0 || request.group_cap > 0) {
    // Constrained request: the budgets come from the wire, the per-element
    // cost/group vectors from the dataset's resident sidecars. A budget
    // against a dataset served without the matching sidecar is a typed
    // request error — never a silently unconstrained solve.
    const ResidentDataset& resident = datasets_.at(request.dataset);
    if (request.cost_budget > 0.0) {
      if (resident.costs.empty()) {
        response.status = ServeResponse::Status::kError;
        response.reason = "invalid_request";
        response.detail = "request sets cost_budget but dataset \"" +
                          request.dataset +
                          "\" is resident without a cost sidecar (--cost-file)";
        return response;
      }
      selection.constraints.costs = resident.costs;
      selection.constraints.cost_budget = request.cost_budget;
    }
    if (request.group_cap > 0) {
      if (resident.groups.empty()) {
        response.status = ServeResponse::Status::kError;
        response.reason = "invalid_request";
        response.detail =
            "request sets group_cap but dataset \"" + request.dataset +
            "\" is resident without a group sidecar (--group-file)";
        return response;
      }
      selection.constraints.groups = resident.groups;
      selection.constraints.group_cap = request.group_cap;
    }
  }
  if (request.bounding == "none") {
    selection.bounding.enabled = false;
  } else if (request.bounding == "exact") {
    selection.bounding.sampling = core::BoundingSampling::kNone;
  } else if (request.bounding == "weighted") {
    selection.bounding.sampling = core::BoundingSampling::kWeighted;
  }  // "uniform" is the BoundingOptions default

  // The remaining end-to-end budget governs the solve via the context-level
  // deadline (request.deadline_ms would restart the clock at dispatch).
  context.set_deadline(item.deadline);
  Timer solve;
  try {
    api::SelectionReport report =
        api::SolverRegistry::instance().run(selection, context);
    response.latency.solve_seconds = solve.elapsed_seconds();
    Timer assemble;
    if (report.degraded) {
      response.status = ServeResponse::Status::kDegraded;
      response.reason = "deadline_expired";
      response.detail = report.degraded_reason;
    } else {
      response.status = ServeResponse::Status::kComplete;
    }
    response.selected_count = report.selected.size();
    if (request.return_selection) response.selected = std::move(report.selected);
    response.objective = report.objective;
    response.disk_cache = report.disk_cache;
    response.latency.report_seconds = assemble.elapsed_seconds();
  } catch (const std::invalid_argument& e) {
    // Post-admission validation (k > |V|, solver x objective mismatch, bad
    // objective options): the request itself is at fault.
    response.latency.solve_seconds = solve.elapsed_seconds();
    response.status = ServeResponse::Status::kError;
    response.reason = "invalid_request";
    response.detail = e.what();
  } catch (const graph::DiskFormatError& e) {
    response.latency.solve_seconds = solve.elapsed_seconds();
    response.status = ServeResponse::Status::kError;
    response.reason = "disk_error";
    response.detail = e.what();
  } catch (const TaskError& e) {
    response.latency.solve_seconds = solve.elapsed_seconds();
    response.status = ServeResponse::Status::kError;
    response.reason = "worker_fault";
    response.detail = e.what();
  } catch (const failpoint::FailpointError& e) {
    response.latency.solve_seconds = solve.elapsed_seconds();
    response.status = ServeResponse::Status::kError;
    response.reason = "injected_fault";
    response.detail = e.what();
  } catch (const std::exception& e) {
    response.latency.solve_seconds = solve.elapsed_seconds();
    response.status = ServeResponse::Status::kError;
    response.reason = "internal_error";
    response.detail = e.what();
  }
  // The context is slot-leased and reused by the next request; clear the
  // per-request budget so it cannot leak across requests.
  context.set_deadline(Deadline::unlimited());
  return response;
}

}  // namespace subsel::serve
