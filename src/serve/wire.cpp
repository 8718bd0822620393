#include "serve/wire.h"

#include <cmath>

#include "api/objective_registry.h"
#include "api/solver_registry.h"
#include "common/json.h"
#include "serve/json_parse.h"

namespace subsel::serve {

const char* priority_name(Priority priority) noexcept {
  switch (priority) {
    case Priority::kInteractive: return "interactive";
    case Priority::kBatch: return "batch";
  }
  return "unknown";
}

const char* request_error_code_name(RequestError::Code code) noexcept {
  switch (code) {
    case RequestError::Code::kMalformedJson: return "malformed_json";
    case RequestError::Code::kOversized: return "oversized_request";
    case RequestError::Code::kMissingField: return "missing_field";
    case RequestError::Code::kBadField: return "bad_field";
    case RequestError::Code::kUnknownField: return "unknown_field";
    case RequestError::Code::kUnknownType: return "unknown_type";
    case RequestError::Code::kUnknownSolver: return "unknown_solver";
    case RequestError::Code::kUnknownObjective: return "unknown_objective";
  }
  return "unknown";
}

namespace {

using Code = RequestError::Code;

/// Field accessors over the parsed request object. Every type mismatch is a
/// typed kBadField reject carrying the field name — the strict mirror of
/// CliArgs' full-consume numeric parsing.
class Fields {
 public:
  Fields(const JsonValue& root, std::string id) : root_(root), id_(std::move(id)) {}

  const std::string& id() const noexcept { return id_; }

  [[noreturn]] void reject(Code code, const std::string& message) const {
    throw RequestError(code, message, id_);
  }

  std::optional<std::string> get_string(std::string_view name) const {
    const JsonValue* value = root_.find(name);
    if (value == nullptr) return std::nullopt;
    if (!value->is_string()) {
      reject(Code::kBadField, std::string(name) + " must be a string");
    }
    return value->as_string();
  }

  std::optional<double> get_number(std::string_view name) const {
    const JsonValue* value = root_.find(name);
    if (value == nullptr) return std::nullopt;
    if (!value->is_number()) {
      reject(Code::kBadField, std::string(name) + " must be a number");
    }
    return value->as_number();
  }

  std::optional<std::size_t> get_size(std::string_view name) const {
    const auto number = get_number(name);
    if (!number.has_value()) return std::nullopt;
    if (!(*number >= 0.0) || *number != std::floor(*number) ||
        *number > 9007199254740992.0 /* 2^53 */) {
      reject(Code::kBadField,
             std::string(name) + " must be a non-negative integer");
    }
    return static_cast<std::size_t>(*number);
  }

  std::optional<bool> get_bool(std::string_view name) const {
    const JsonValue* value = root_.find(name);
    if (value == nullptr) return std::nullopt;
    if (!value->is_bool()) {
      reject(Code::kBadField, std::string(name) + " must be a boolean");
    }
    return value->as_bool();
  }

  /// Strict schema enforcement: every key present must be in `allowed`.
  void require_known_keys(std::initializer_list<std::string_view> allowed) const {
    for (const auto& [key, unused] : root_.members()) {
      bool known = false;
      for (std::string_view name : allowed) {
        if (key == name) {
          known = true;
          break;
        }
      }
      if (!known) {
        reject(Code::kUnknownField, "unknown request field \"" + key + "\"");
      }
    }
  }

 private:
  const JsonValue& root_;
  std::string id_;
};

ServeRequest parse_select(const Fields& fields) {
  ServeRequest request;
  request.kind = ServeRequest::Kind::kSelect;
  request.id = fields.id();

  fields.require_known_keys({"type", "id", "dataset", "priority", "deadline_ms",
                             "k", "fraction", "solver", "objective", "alpha",
                             "saturation", "self_similarity", "utility_weighted",
                             "seed", "machines", "rounds", "epsilon", "bounding",
                             "cost_budget", "group_cap", "return_selection"});

  const auto dataset = fields.get_string("dataset");
  if (!dataset.has_value() || dataset->empty()) {
    fields.reject(Code::kMissingField, "select request needs \"dataset\"");
  }
  request.dataset = *dataset;

  request.k = fields.get_size("k").value_or(0);
  request.fraction = fields.get_number("fraction").value_or(0.0);
  if (request.k == 0 && !(request.fraction > 0.0 && request.fraction <= 1.0)) {
    if (fields.get_number("fraction").has_value()) {
      fields.reject(Code::kBadField, "fraction must be in (0, 1]");
    }
    fields.reject(Code::kMissingField,
                  "select request needs \"k\" >= 1 or \"fraction\" in (0, 1]");
  }

  if (const auto priority = fields.get_string("priority"); priority.has_value()) {
    if (*priority == "interactive") {
      request.priority = Priority::kInteractive;
    } else if (*priority == "batch") {
      request.priority = Priority::kBatch;
    } else {
      fields.reject(Code::kBadField,
                    "priority must be \"interactive\" or \"batch\", not \"" +
                        *priority + "\"");
    }
  }

  request.deadline_ms =
      static_cast<std::uint64_t>(fields.get_size("deadline_ms").value_or(0));

  if (const auto solver = fields.get_string("solver"); solver.has_value()) {
    request.solver = *solver;
  }
  if (!api::SolverRegistry::instance().contains(request.solver)) {
    fields.reject(Code::kUnknownSolver,
                  "unknown solver \"" + request.solver +
                      "\" (see `subsel solvers`)");
  }
  if (const auto objective = fields.get_string("objective"); objective.has_value()) {
    request.objective = *objective;
  }
  if (!api::ObjectiveRegistry::instance().contains(request.objective)) {
    fields.reject(Code::kUnknownObjective,
                  "unknown objective \"" + request.objective +
                      "\" (see `subsel objectives`)");
  }

  request.alpha = fields.get_number("alpha").value_or(request.alpha);
  request.saturation = fields.get_number("saturation").value_or(request.saturation);
  request.self_similarity =
      fields.get_number("self_similarity").value_or(request.self_similarity);
  request.utility_weighted =
      fields.get_bool("utility_weighted").value_or(request.utility_weighted);
  request.seed =
      static_cast<std::uint64_t>(fields.get_size("seed").value_or(23));
  request.machines = fields.get_size("machines").value_or(request.machines);
  request.rounds = fields.get_size("rounds").value_or(request.rounds);
  request.epsilon = fields.get_number("epsilon").value_or(request.epsilon);
  // Negated comparison so NaN is rejected too.
  if (!(request.epsilon > 0.0 && request.epsilon < 1.0)) {
    fields.reject(Code::kBadField, "epsilon must be in (0, 1)");
  }
  request.cost_budget = fields.get_number("cost_budget").value_or(0.0);
  if (request.cost_budget < 0.0 || !std::isfinite(request.cost_budget)) {
    fields.reject(Code::kBadField, "cost_budget must be a finite number >= 0");
  }
  request.group_cap = fields.get_size("group_cap").value_or(0);
  request.return_selection =
      fields.get_bool("return_selection").value_or(true);

  if (const auto bounding = fields.get_string("bounding"); bounding.has_value()) {
    if (*bounding != "none" && *bounding != "exact" && *bounding != "uniform" &&
        *bounding != "weighted") {
      fields.reject(Code::kBadField,
                    "bounding must be none|exact|uniform|weighted, not \"" +
                        *bounding + "\"");
    }
    request.bounding = *bounding;
  }
  // Constrained requests default to bounding "none": the bounding pre-pass
  // is unconstrained and incompatible with selection budgets, so a client
  // opting into cost_budget/group_cap shouldn't also have to disable the
  // server-side default. An explicit "bounding" value is honored and, if it
  // conflicts, rejected downstream with the typed incompatibility reason.
  if ((request.cost_budget > 0.0 || request.group_cap > 0) &&
      !fields.get_string("bounding").has_value()) {
    request.bounding = "none";
  }
  return request;
}

}  // namespace

ServeRequest parse_request(std::string_view line, const ParseLimits& limits) {
  if (line.size() > limits.max_request_bytes) {
    throw RequestError(Code::kOversized,
                       "request of " + std::to_string(line.size()) +
                           " bytes exceeds the " +
                           std::to_string(limits.max_request_bytes) +
                           "-byte limit");
  }

  JsonValue root;
  try {
    root = JsonValue::parse(line);
  } catch (const JsonParseError& e) {
    throw RequestError(Code::kMalformedJson, e.what());
  }
  if (!root.is_object()) {
    throw RequestError(Code::kMalformedJson, "request must be a JSON object");
  }

  // Pull the id before anything else so later rejects can carry it.
  std::string id;
  if (const JsonValue* id_value = root.find("id"); id_value != nullptr) {
    if (!id_value->is_string()) {
      throw RequestError(Code::kBadField, "id must be a string");
    }
    id = id_value->as_string();
  }
  const Fields fields(root, id);
  if (id.empty()) {
    fields.reject(Code::kMissingField, "request needs a non-empty \"id\"");
  }

  const auto type = fields.get_string("type");
  if (!type.has_value()) {
    fields.reject(Code::kMissingField, "request needs \"type\"");
  }
  if (*type == "select") return parse_select(fields);
  if (*type == "stats") {
    fields.require_known_keys({"type", "id"});
    ServeRequest request;
    request.kind = ServeRequest::Kind::kStats;
    request.id = id;
    return request;
  }
  fields.reject(Code::kUnknownType,
                "unknown request type \"" + *type + "\" (select|stats)");
}

std::string ServeRequest::to_json() const {
  JsonWriter json;
  json.begin_object();
  json.key("type").value(kind == Kind::kStats ? "stats" : "select");
  json.key("id").value(id);
  if (kind == Kind::kStats) {
    json.end_object();
    return json.str();
  }
  json.key("dataset").value(dataset);
  json.key("priority").value(priority_name(priority));
  if (deadline_ms != 0) json.key("deadline_ms").value(deadline_ms);
  if (k != 0) json.key("k").value(k);
  if (fraction > 0.0) json.key("fraction").value(fraction);
  json.key("solver").value(solver);
  json.key("objective").value(objective);
  json.key("alpha").value(alpha);
  json.key("saturation").value(saturation);
  json.key("self_similarity").value(self_similarity);
  json.key("utility_weighted").value(utility_weighted);
  json.key("seed").value(seed);
  json.key("machines").value(machines);
  json.key("rounds").value(rounds);
  json.key("epsilon").value(epsilon);
  json.key("bounding").value(bounding);
  if (cost_budget > 0.0) json.key("cost_budget").value(cost_budget);
  if (group_cap != 0) json.key("group_cap").value(group_cap);
  json.key("return_selection").value(return_selection);
  json.end_object();
  return json.str();
}

const char* ServeResponse::status_name() const noexcept {
  switch (status) {
    case Status::kComplete: return "complete";
    case Status::kDegraded: return "degraded";
    case Status::kRejected: return "rejected";
    case Status::kError: return "error";
    case Status::kStats: return "ok";
  }
  return "unknown";
}

std::string ServeResponse::to_json() const {
  JsonWriter json;
  json.begin_object();
  json.key("schema").value(kResponseSchema);
  json.key("schema_version").value(kServeSchemaVersion);
  json.key("id").value(id);
  json.key("status").value(status_name());
  json.key("reason").value(reason);
  json.key("detail").value(detail);

  if (status == Status::kStats) {
    json.key("uptime_seconds").value(uptime_seconds);
    json.key("datasets").begin_array();
    for (const DatasetInfo& info : datasets) {
      json.begin_object();
      json.key("name").value(info.name);
      json.key("num_points").value(info.num_points);
      json.key("disk").value(info.disk);
      json.end_object();
    }
    json.end_array();
  } else if (status != Status::kRejected) {
    json.key("dataset").value(dataset);
    json.key("solver").value(solver);
    json.key("objective_name").value(objective_name);
    json.key("priority").value(priority_name(priority));
    json.key("selected_count").value(selected_count);
    json.key("selected").begin_array();
    for (core::NodeId node : selected) {
      json.value(static_cast<std::uint64_t>(node));
    }
    json.end_array();
    json.key("objective").value(objective);
    if (disk_cache.has_value()) {
      json.key("disk_cache").begin_object();
      json.key("num_shards").value(disk_cache->num_shards);
      json.key("hits").value(disk_cache->hits);
      json.key("misses").value(disk_cache->misses);
      json.key("prefetch_issued").value(disk_cache->prefetch_issued);
      json.key("prefetch_loaded").value(disk_cache->prefetch_loaded);
      json.key("read_retries").value(disk_cache->read_retries);
      json.key("prefetch_degraded").value(disk_cache->prefetch_degraded);
      json.key("resident_blocks_high_water")
          .value(disk_cache->resident_blocks_high_water);
      json.key("max_cached_blocks").value(disk_cache->max_cached_blocks);
      json.end_object();
    }
  }

  json.key("latency").begin_object();
  json.key("queue_seconds").value(latency.queue_seconds);
  json.key("solve_seconds").value(latency.solve_seconds);
  json.key("report_seconds").value(latency.report_seconds);
  json.key("total_seconds").value(latency.total_seconds);
  json.end_object();

  json.key("server").begin_object();
  json.key("accepted").value(counters.accepted);
  json.key("rejected").value(counters.rejected);
  json.key("completed").value(counters.completed);
  json.key("degraded").value(counters.degraded);
  json.key("errors").value(counters.errors);
  json.key("expired_in_queue").value(counters.expired_in_queue);
  json.key("completed_interactive")
      .value(counters.completed_by_class[static_cast<std::size_t>(
          Priority::kInteractive)]);
  json.key("completed_batch")
      .value(counters.completed_by_class[static_cast<std::size_t>(
          Priority::kBatch)]);
  json.key("queue_depth").value(counters.queue_depth);
  json.key("queue_depth_high_water").value(counters.queue_depth_high_water);
  json.key("inflight").value(counters.inflight);
  json.end_object();

  json.end_object();
  return json.str();
}

}  // namespace subsel::serve
