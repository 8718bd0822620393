#include "api/selection_api.h"

#include "common/json.h"

namespace subsel::api {
namespace {

const char* sampling_name(core::BoundingSampling sampling) {
  switch (sampling) {
    case core::BoundingSampling::kNone: return "none";
    case core::BoundingSampling::kUniform: return "uniform";
    case core::BoundingSampling::kWeighted: return "weighted";
  }
  return "unknown";
}

}  // namespace

std::string SelectionReport::to_json() const {
  JsonWriter json;
  json.begin_object();
  json.key("schema").value("subsel.selection_report.v1");
  // Bumped when an existing field changes meaning; additions keep it.
  json.key("schema_version").value(1);
  json.key("solver").value(solver);
  json.key("objective_name").value(objective_name);
  json.key("kernel_backend").value(kernel_backend);
  json.key("num_points").value(num_points);
  json.key("k_requested").value(k_requested);
  json.key("objective_params").begin_object();
  json.key("alpha").value(objective_params.alpha);
  json.key("beta").value(objective_params.beta);
  json.end_object();
  json.key("seed").value(seed);
  json.key("preempted").value(preempted);
  json.key("degraded").value(degraded);
  json.key("degraded_reason").value(degraded_reason);

  json.key("objective").value(objective);
  json.key("solver_objective").value(solver_objective);
  json.key("selected_count").value(selected.size());
  json.key("selected").begin_array();
  for (NodeId id : selected) json.value(static_cast<std::uint64_t>(id));
  json.end_array();

  json.key("timings").begin_array();
  for (const StageTiming& timing : timings) {
    json.begin_object();
    json.key("stage").value(timing.stage);
    json.key("seconds").value(timing.seconds);
    json.end_object();
  }
  json.end_array();
  json.key("total_seconds").value(total_seconds);

  json.key("rounds").begin_array();
  for (const core::RoundStats& round : rounds) {
    json.begin_object();
    json.key("round").value(round.round);
    json.key("input_size").value(round.input_size);
    json.key("target_size").value(round.target_size);
    json.key("num_partitions").value(round.num_partitions);
    json.key("output_size").value(round.output_size);
    json.key("peak_partition_bytes").value(round.peak_partition_bytes);
    json.key("peak_state_bytes").value(round.peak_state_bytes);
    json.end_object();
  }
  json.end_array();

  if (bounding.has_value()) {
    json.key("bounding").begin_object();
    json.key("included").value(bounding->included);
    json.key("excluded").value(bounding->excluded);
    json.key("grow_rounds").value(bounding->grow_rounds);
    json.key("shrink_rounds").value(bounding->shrink_rounds);
    json.end_object();
  }

  if (constraints.has_value()) {
    json.key("constraints").begin_object();
    json.key("cost_budget").value(constraints->cost_budget);
    json.key("selected_cost").value(constraints->selected_cost);
    json.key("num_groups").value(constraints->num_groups);
    json.key("num_blocked").value(constraints->num_blocked);
    json.key("feasible").value(constraints->feasible);
    json.end_object();
  }

  json.key("memory").begin_object();
  json.key("peak_partition_bytes").value(peak_partition_bytes);
  json.key("peak_resident_elements").value(peak_resident_elements);
  json.key("peak_kernel_state_bytes").value(peak_kernel_state_bytes);
  json.end_object();

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
    json.key("resident_bytes").value(disk_cache->resident_bytes);
    json.end_object();
  }

  json.key("extra").begin_object();
  for (const auto& [name, value] : extra) json.key(name).value(value);
  json.end_object();

  // Full config echo: a report alone documents how to reproduce its run.
  json.key("config").begin_object();
  json.key("distributed").begin_object();
  json.key("num_machines").value(distributed_echo.num_machines);
  json.key("num_rounds").value(distributed_echo.num_rounds);
  json.key("adaptive_partitioning").value(distributed_echo.adaptive_partitioning);
  json.key("checkpoint_file").value(distributed_echo.checkpoint_file);
  json.key("checkpoint_every").value(distributed_echo.checkpoint_every);
  json.key("stop_after_round").value(distributed_echo.stop_after_round);
  json.key("prefetch_depth").value(distributed_echo.prefetch_depth);
  json.end_object();
  json.key("bounding").begin_object();
  json.key("enabled").value(bounding_echo.enabled);
  json.key("sampling").value(sampling_name(bounding_echo.sampling));
  json.key("sample_fraction").value(bounding_echo.sample_fraction);
  json.key("prefetch_depth").value(bounding_echo.prefetch_depth);
  json.end_object();
  json.key("dataflow").begin_object();
  json.key("num_shards").value(dataflow_echo.num_shards);
  json.key("worker_memory_bytes").value(dataflow_echo.worker_memory_bytes);
  json.end_object();
  json.key("streaming").begin_object();
  json.key("epsilon").value(streaming_echo.epsilon);
  json.key("monotonicity_offset").value(streaming_echo.monotonicity_offset);
  json.end_object();
  json.key("sample_prune").begin_object();
  json.key("machine_capacity").value(sample_prune_echo.machine_capacity);
  json.key("max_rounds").value(sample_prune_echo.max_rounds);
  json.end_object();
  json.key("objective").begin_object();
  json.key("name").value(objective_name);
  json.key("facility_location").begin_object();
  json.key("self_similarity").value(facility_location_echo.self_similarity);
  json.key("utility_weighted").value(facility_location_echo.utility_weighted);
  json.end_object();
  json.key("coverage").begin_object();
  json.key("saturation").value(coverage_echo.saturation);
  json.key("self_similarity").value(coverage_echo.self_similarity);
  json.key("utility_weighted").value(coverage_echo.utility_weighted);
  json.end_object();
  json.end_object();
  json.end_object();

  json.end_object();
  return json.str();
}

}  // namespace subsel::api
