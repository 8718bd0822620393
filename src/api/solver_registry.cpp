#include "api/solver_registry.h"

#include <algorithm>
#include <span>
#include <stdexcept>
#include <utility>

#include "baselines/baselines.h"
#include "baselines/streaming.h"
#include "beam/beam_pipeline.h"
#include "common/simd.h"
#include "common/timer.h"
#include "core/selection_pipeline.h"
#include "dataflow/pipeline.h"
#include "graph/disk_ground_set.h"

namespace subsel::api {
namespace {

/// The wall-clock budget governing this run: the request's (clock started at
/// solver dispatch) when set, else whatever the caller armed on the context.
Deadline effective_deadline(const SelectionRequest& request,
                            const SolverContext& context) {
  return request.deadline_ms > 0 ? Deadline::after_ms(request.deadline_ms)
                                 : context.deadline();
}

/// Maps the request's option blocks onto the core round-loop config and wires
/// in the context's shared state (pool, arenas, cancellation, progress).
core::DistributedGreedyConfig greedy_config(const SelectionRequest& request,
                                            SolverContext& context,
                                            const core::ConstraintSet* constraints) {
  core::DistributedGreedyConfig config;
  config.constraints = constraints;
  config.num_machines = request.distributed.num_machines;
  config.num_rounds = request.distributed.num_rounds;
  config.adaptive_partitioning = request.distributed.adaptive_partitioning;
  config.checkpoint_file = request.distributed.checkpoint_file;
  config.checkpoint_every = request.distributed.checkpoint_every;
  config.stop_after_round = request.distributed.stop_after_round;
  config.prefetch_depth = request.distributed.prefetch_depth;
  config.seed = request.seed;
  config.pool = context.pool();
  config.arena_pool = &context.arenas();
  config.cancel = context.cancel();
  config.progress = context.progress();
  config.deadline = effective_deadline(request, context);
  return config;
}

core::SelectionPipelineConfig pipeline_config(const SelectionRequest& request,
                                              SolverContext& context,
                                              const core::ConstraintSet* constraints) {
  core::SelectionPipelineConfig config;
  config.use_bounding = request.bounding.enabled;
  config.bounding.sampling = request.bounding.sampling;
  config.bounding.sample_fraction = request.bounding.sample_fraction;
  config.bounding.prefetch_depth = request.bounding.prefetch_depth;
  config.bounding.seed = request.seed;
  config.bounding.pool = context.pool();
  config.bounding.deadline = effective_deadline(request, context);
  config.greedy = greedy_config(request, context, constraints);
  return config;
}

void absorb_pipeline_result(core::SelectionPipelineResult&& result,
                            SelectionReport& report) {
  report.selected = std::move(result.selected);
  report.objective = result.objective;
  report.solver_objective = result.objective;
  report.preempted = result.preempted;
  report.degraded = result.degraded;
  report.degraded_reason = std::move(result.degraded_reason);
  report.rounds = std::move(result.greedy_rounds);
  if (result.bounding.has_value()) {
    report.bounding = BoundingSummary{
        result.bounding->included, result.bounding->excluded,
        result.bounding->grow_rounds, result.bounding->shrink_rounds};
    report.timings.push_back({"bounding", result.bounding_seconds});
  }
  report.timings.push_back({"greedy", result.greedy_seconds});
}

SelectionReport run_pipeline(const SelectionRequest& request,
                             SolverContext& context,
                             const core::ObjectiveKernel& kernel,
                             const core::ConstraintSet* constraints) {
  SelectionReport report;
  absorb_pipeline_result(
      core::select_subset(kernel, request.resolved_k(),
                          pipeline_config(request, context, constraints)),
      report);
  return report;
}

SelectionReport run_distributed_greedy(const SelectionRequest& request,
                                       SolverContext& context,
                                       const core::ObjectiveKernel& kernel,
                                       const core::ConstraintSet* constraints) {
  auto result = core::distributed_greedy(kernel, request.resolved_k(),
                                         greedy_config(request, context, constraints));
  SelectionReport report;
  report.selected = std::move(result.selected);
  report.objective = result.objective;
  report.solver_objective = result.objective;
  report.preempted = result.preempted;
  report.degraded = result.degraded;
  report.degraded_reason = std::move(result.degraded_reason);
  report.rounds = std::move(result.rounds);
  if (result.resumed_rounds > 0) {
    report.extra.emplace_back("resumed_rounds",
                              static_cast<double>(result.resumed_rounds));
  }
  return report;
}

SelectionReport run_dataflow(const SelectionRequest& request,
                             SolverContext& context,
                             const core::ObjectiveKernel& kernel,
                             const core::ConstraintSet* constraints) {
  dataflow::PipelineOptions options;
  options.num_shards = request.dataflow.num_shards;
  options.worker_memory_bytes = request.dataflow.worker_memory_bytes;
  options.pool = context.pool();
  dataflow::Pipeline pipeline(options);
  SelectionReport report;
  absorb_pipeline_result(
      beam::beam_select_subset(pipeline, kernel, request.resolved_k(),
                               pipeline_config(request, context, constraints)),
      report);
  report.extra.emplace_back("peak_shard_bytes",
                            static_cast<double>(pipeline.peak_shard_bytes()));
  return report;
}

SelectionReport run_greedi(const SelectionRequest& request, SolverContext& context,
                           const core::ObjectiveKernel& kernel,
                           const core::ConstraintSet* constraints,
                           baselines::PartitionScheme scheme) {
  baselines::GreeDiConfig config;
  config.num_machines = request.distributed.num_machines;
  config.scheme = scheme;
  config.seed = request.seed;
  config.pool = context.pool();
  config.constraints = constraints;
  auto result = baselines::greedi(kernel, request.resolved_k(), config);
  SelectionReport report;
  report.selected = std::move(result.selected);
  report.objective = result.objective;
  report.solver_objective = result.objective;
  report.peak_resident_elements = result.merge_candidates;
  report.peak_partition_bytes = result.peak_partition_bytes;
  report.peak_kernel_state_bytes = result.peak_state_bytes;
  report.extra.emplace_back("merge_candidates",
                            static_cast<double>(result.merge_candidates));
  report.extra.emplace_back("merge_bytes", static_cast<double>(result.merge_bytes));
  return report;
}

/// Centralized baselines hold the whole ground set on one machine; their
/// engine bytes map onto the partition/state memory stats so no solver
/// reports zeros it shouldn't. Lazy, stochastic and threshold greedy account
/// their result as a sum of accepted gains (the solver_objective); the exact
/// f(S) is evaluated here, once, on the context's pool.
SelectionReport from_greedy_result(core::GreedyResult&& result,
                                   const core::ObjectiveKernel& kernel,
                                   const SolverContext& context,
                                   std::size_t resident_elements) {
  SelectionReport report;
  report.degraded = result.degraded;
  if (result.degraded) {
    report.degraded_reason = "deadline expired after " +
                             std::to_string(result.selected.size()) +
                             " selections; returning the greedy prefix";
  }
  report.selected = std::move(result.selected);
  report.solver_objective = result.objective;
  report.objective =
      report.selected.empty()
          ? 0.0
          : kernel.evaluate(std::span<const NodeId>(report.selected),
                            context.pool());
  report.peak_partition_bytes = result.materialized_bytes;
  report.peak_kernel_state_bytes = result.kernel_state_bytes;
  report.peak_resident_elements = resident_elements;
  return report;
}

SelectionReport run_sieve(const SelectionRequest& request, SolverContext& context,
                          const core::ObjectiveKernel& kernel,
                          const core::ConstraintSet* constraints) {
  baselines::SieveStreamingConfig config;
  config.epsilon = request.streaming.epsilon;
  config.apply_monotonicity_offset = request.streaming.monotonicity_offset;
  config.seed = request.seed;
  config.deadline = effective_deadline(request, context);
  config.constraints = constraints;
  config.pool = context.pool();
  auto result = baselines::sieve_streaming(kernel, request.resolved_k(), config);
  SelectionReport report;
  report.selected = std::move(result.selected);
  report.objective = result.objective;
  report.solver_objective = result.objective;
  report.peak_resident_elements = result.peak_resident_elements;
  report.degraded = result.degraded;
  if (result.degraded) {
    report.degraded_reason =
        "deadline expired mid-stream; returning the best sieve over the"
        " prefix seen";
  }
  report.extra.emplace_back("num_sieves", static_cast<double>(result.num_sieves));
  return report;
}

SelectionReport run_sample_and_prune(const SelectionRequest& request,
                                     SolverContext& context,
                                     const core::ObjectiveKernel& kernel,
                                     const core::ConstraintSet* constraints) {
  baselines::SamplePruneConfig config;
  config.machine_capacity = request.sample_prune.machine_capacity;
  config.max_rounds = request.sample_prune.max_rounds;
  config.seed = request.seed;
  config.deadline = effective_deadline(request, context);
  config.constraints = constraints;
  config.pool = context.pool();
  auto result = baselines::sample_and_prune(kernel, request.resolved_k(), config);
  SelectionReport report;
  report.selected = std::move(result.selected);
  report.objective = result.objective;
  report.solver_objective = result.objective;
  report.peak_resident_elements = result.peak_resident_elements;
  report.peak_partition_bytes = result.materialized_bytes;
  report.peak_kernel_state_bytes = result.kernel_state_bytes;
  report.degraded = result.degraded;
  if (result.degraded) {
    report.degraded_reason = "deadline expired after " +
                             std::to_string(result.rounds) +
                             " sample-and-prune rounds; returning the partial"
                             " solution";
  }
  report.extra.emplace_back("rounds", static_cast<double>(result.rounds));
  return report;
}

void register_builtins(SolverRegistry& registry) {
  using baselines::PartitionScheme;

  SolverCapabilities round_based;
  round_based.distributed = true;
  round_based.cancellable = true;
  round_based.checkpointable = true;
  round_based.constrained = true;

  SolverCapabilities pipeline_caps = round_based;
  pipeline_caps.bounding_stage = true;
  registry.register_solver(
      {"pipeline",
       "Bounding pre-pass + multi-round distributed greedy — the paper's"
       " deployed end-to-end system",
       "1-1/e vs centralized (empirical)", "O(|V|/m) per machine", pipeline_caps},
      run_pipeline);

  registry.register_solver(
      {"distributed-greedy",
       "Pure multi-round partition greedy (Algorithm 6), no bounding, no"
       " central merge",
       "1-1/e vs centralized (empirical)", "O(|V|/m) per machine", round_based},
      run_distributed_greedy);

  SolverCapabilities dataflow_caps = round_based;
  dataflow_caps.checkpointable = false;  // beam rounds re-run from scratch
  dataflow_caps.bounding_stage = true;
  dataflow_caps.needs_distributed_scoring = true;
  // The beam substrate's stage fusion predates the constraint seam.
  dataflow_caps.constrained = false;
  registry.register_solver(
      {"dataflow",
       "The full pipeline on the Beam-style dataflow substrate with enforced"
       " per-worker memory budgets",
       "1-1/e vs centralized (empirical)", "per-worker budget, enforced",
       dataflow_caps},
      run_dataflow);

  SolverCapabilities merge_based;
  merge_based.distributed = true;
  merge_based.constrained = true;
  registry.register_solver(
      {"greedi",
       "GreeDi (Mirzasoleiman et al.): per-partition greedy over contiguous"
       " partitions, then one centralized merge of m*k candidates",
       "(1-1/e)/min(sqrt(k),m)", "O(m*k) central merge", merge_based},
      [](const SelectionRequest& request, SolverContext& context,
         const core::ObjectiveKernel& kernel,
         const core::ConstraintSet* constraints) {
        return run_greedi(request, context, kernel, constraints,
                          PartitionScheme::kContiguous);
      });

  registry.register_solver(
      {"randgreedi",
       "RandGreeDi (Barbosa et al.): GreeDi with uniform random partitioning",
       "(1-1/e)/2 in expectation", "O(m*k) central merge", merge_based},
      [](const SelectionRequest& request, SolverContext& context,
         const core::ObjectiveKernel& kernel,
         const core::ConstraintSet* constraints) {
        return run_greedi(request, context, kernel, constraints,
                          PartitionScheme::kRandom);
      });

  SolverCapabilities centralized_caps;
  centralized_caps.constrained = true;
  registry.register_solver(
      {"lazy-greedy",
       "Lazy greedy (Minoux): centralized Algorithm 2 with stale-gain"
       " re-evaluation; the gold-standard output",
       "1-1/e", "O(n) one machine", centralized_caps},
      [](const SelectionRequest& request, SolverContext& context,
         const core::ObjectiveKernel& kernel,
         const core::ConstraintSet* constraints) {
        return from_greedy_result(
            baselines::lazy_greedy(kernel, request.resolved_k(),
                                   effective_deadline(request, context),
                                   constraints),
            kernel, context, request.ground_set->num_points());
      });

  registry.register_solver(
      {"stochastic-greedy",
       "Stochastic greedy (lazier-than-lazy): each step scans a random"
       " (n/k)ln(1/eps) sample",
       "1-1/e-eps in expectation", "O(n) one machine", centralized_caps},
      [](const SelectionRequest& request, SolverContext& context,
         const core::ObjectiveKernel& kernel,
         const core::ConstraintSet* constraints) {
        return from_greedy_result(
            baselines::stochastic_greedy(kernel, request.resolved_k(),
                                         request.streaming.epsilon,
                                         request.seed,
                                         effective_deadline(request, context),
                                         constraints),
            kernel, context, request.ground_set->num_points());
      });

  registry.register_solver(
      {"threshold-greedy",
       "Threshold greedy (Badanidiyuru & Vondrak): descending geometric"
       " threshold sweep",
       "1-1/e-eps", "O(n) one machine", centralized_caps},
      [](const SelectionRequest& request, SolverContext& context,
         const core::ObjectiveKernel& kernel,
         const core::ConstraintSet* constraints) {
        return from_greedy_result(
            baselines::threshold_greedy(kernel, request.resolved_k(),
                                        request.streaming.epsilon,
                                        effective_deadline(request, context),
                                        constraints),
            kernel, context, request.ground_set->num_points());
      });

  SolverCapabilities streaming_caps;
  streaming_caps.needs_full_graph = false;
  streaming_caps.streaming = true;
  streaming_caps.constrained = true;
  registry.register_solver(
      {"sieve-streaming",
       "SieveStreaming (Badanidiyuru et al.): one pass over a random"
       " permutation, O(k log(k)/eps) resident elements",
       "1/2-eps", "O(k log(k)/eps) resident", streaming_caps},
      run_sieve);

  SolverCapabilities sample_prune_caps;
  sample_prune_caps.distributed = true;
  sample_prune_caps.constrained = true;
  registry.register_solver(
      {"sample-and-prune",
       "SAMPLE&PRUNE (Kumar et al.): MapReduce rounds of sample, greedy"
       " extend, prune",
       "constant factor", "O(k*n^delta) coordinator", sample_prune_caps},
      run_sample_and_prune);

  SolverCapabilities random_caps;
  random_caps.needs_full_graph = false;
  random_caps.constrained = true;
  registry.register_solver(
      {"random",
       "Uniform random subset without replacement — the floor every"
       " normalized score is measured against",
       "none", "O(k)", random_caps},
      [](const SelectionRequest& request, SolverContext& context,
         const core::ObjectiveKernel& kernel,
         const core::ConstraintSet* constraints) {
        core::GreedyResult result = baselines::random_selection(
            kernel, request.resolved_k(), request.seed, constraints,
            context.pool());
        SelectionReport report;
        report.selected = std::move(result.selected);
        report.objective = result.objective;
        report.solver_objective = result.objective;
        return report;
      });
}

}  // namespace

std::string incompatibility_reason(const SolverCapabilities& solver,
                                   const core::ObjectiveKernelCaps& objective,
                                   bool bounding_enabled, bool constrained) {
  if (solver.needs_distributed_scoring && !objective.distributed_scoring) {
    return "the solver scores f(S) with the Section 5 distributed joins,"
           " which need an edge-decomposable objective";
  }
  if (solver.bounding_stage && bounding_enabled && !objective.utility_bounds) {
    return "the bounding pre-pass needs utility-bound support"
           " (Section 4.1 Umin/Umax); disable bounding (--bounding=none) or"
           " use the pairwise objective";
  }
  if (constrained && !solver.constrained) {
    return "the solver's acceptance loop does not consult a"
           " ConstraintTracker, so it would silently ignore the knapsack/"
           "matroid/blocked budgets; pick a constrained-capable solver";
  }
  if (constrained && solver.bounding_stage && bounding_enabled) {
    return "the bounding pre-pass is unconstrained and can exclude the only"
           " feasible candidates; disable bounding (--bounding=none) to run"
           " with selection constraints";
  }
  return "";
}

SolverRegistry& SolverRegistry::instance() {
  static SolverRegistry registry = [] {
    SolverRegistry built;
    register_builtins(built);
    return built;
  }();
  return registry;
}

void SolverRegistry::register_solver(SolverInfo info, SolverFn fn) {
  const std::string name = info.name;
  entries_[name] = Entry{std::move(info), std::move(fn)};
}

bool SolverRegistry::contains(const std::string& name) const {
  return entries_.count(name) != 0;
}

const SolverInfo* SolverRegistry::info(const std::string& name) const {
  const auto it = entries_.find(name);
  return it == entries_.end() ? nullptr : &it->second.info;
}

std::vector<SolverInfo> SolverRegistry::list() const {
  std::vector<SolverInfo> infos;
  infos.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) infos.push_back(entry.info);
  return infos;
}

SelectionReport SolverRegistry::run(const SelectionRequest& request,
                                    SolverContext& context) const {
  const auto it = entries_.find(request.solver);
  if (it == entries_.end()) {
    std::string known;
    for (const auto& [name, entry] : entries_) {
      if (!known.empty()) known += ", ";
      known += name;
    }
    throw std::invalid_argument("unknown solver \"" + request.solver +
                                "\" (known: " + known + ")");
  }
  const std::size_t k = request.resolved_k();  // validates request up front
  core::validate_epsilon(request.streaming.epsilon,
                         "SelectionRequest.streaming.epsilon");

  // Resolve the request's constraint block into a validated ConstraintSet. A
  // fully empty result stays nullptr and keeps the solver on its
  // bit-identical unconstrained path.
  core::ConstraintSet constraint_set;
  constraint_set.costs = request.constraints.costs;
  constraint_set.cost_budget = request.constraints.cost_budget;
  constraint_set.groups = request.constraints.groups;
  constraint_set.group_caps = request.constraints.group_caps;
  constraint_set.blocked = request.constraints.blocked;
  if (constraint_set.has_matroid() && constraint_set.group_caps.empty() &&
      request.constraints.group_cap > 0) {
    const std::uint32_t max_group = *std::max_element(
        constraint_set.groups.begin(), constraint_set.groups.end());
    constraint_set.group_caps.assign(max_group + 1,
                                     request.constraints.group_cap);
  }
  const core::ConstraintSet* constraints = nullptr;
  if (!constraint_set.empty()) {
    constraint_set.validate(request.ground_set->num_points());
    constraints = &constraint_set;
  }

  // Build the objective (throws on an unknown name or bad options), then
  // check the solver can actually run it.
  const std::unique_ptr<core::ObjectiveKernel> kernel =
      ObjectiveRegistry::instance().make(request);
  const std::string reason = incompatibility_reason(
      it->second.info.caps, kernel->caps(), request.bounding.enabled,
      constraints != nullptr);
  if (!reason.empty()) {
    throw std::invalid_argument("solver \"" + request.solver +
                                "\" cannot run objective \"" +
                                request.objective_name + "\": " + reason);
  }

  // Out-of-core runs report the cache's behavior over exactly this run:
  // snapshot the monotonic counters before and diff after.
  const auto* disk_set =
      dynamic_cast<const graph::DiskGroundSet*>(request.ground_set);
  graph::DiskCacheStats disk_before;
  if (disk_set != nullptr) disk_before = disk_set->stats();

  Timer total;
  SelectionReport report = it->second.fn(request, context, *kernel, constraints);
  const double solve_seconds = total.elapsed_seconds();

  if (disk_set != nullptr) {
    disk_set->drain_prefetch();  // count stragglers before snapshotting
    const graph::DiskCacheStats after = disk_set->stats();
    // Saturating deltas: hit counts can dip transiently when another
    // instance takes over a thread's deferred tally mid-run, and an
    // unsigned wrap would report ~1.8e19 hits.
    const auto delta = [](std::uint64_t now, std::uint64_t before) {
      return now >= before ? now - before : 0;
    };
    DiskCacheSummary summary;
    summary.num_shards = disk_set->num_shards();
    summary.hits = delta(after.hits, disk_before.hits);
    summary.misses = delta(after.misses, disk_before.misses);
    summary.prefetch_issued =
        delta(after.prefetch_issued, disk_before.prefetch_issued);
    summary.prefetch_loaded =
        delta(after.prefetch_loaded, disk_before.prefetch_loaded);
    summary.read_retries = delta(after.read_retries, disk_before.read_retries);
    summary.prefetch_degraded =
        delta(after.prefetch_degraded, disk_before.prefetch_degraded);
    summary.resident_blocks_high_water = after.resident_blocks_high_water;
    summary.max_cached_blocks = disk_set->max_cached_blocks();
    summary.resident_bytes = disk_set->resident_bytes();
    report.disk_cache = summary;
  }

  report.solver = request.solver;
  report.objective_name = request.objective_name;
  report.kernel_backend = simd::active_backend_name();
  report.num_points = request.ground_set->num_points();
  report.k_requested = k;
  report.objective_params = request.objective;
  report.seed = request.seed;
  report.distributed_echo = request.distributed;
  report.bounding_echo = request.bounding;
  report.dataflow_echo = request.dataflow;
  report.streaming_echo = request.streaming;
  report.sample_prune_echo = request.sample_prune;
  report.facility_location_echo = request.facility_location;
  report.coverage_echo = request.coverage;

  std::sort(report.selected.begin(), report.selected.end());
  if (constraints != nullptr) {
    ConstraintSummary summary;
    summary.cost_budget = constraints->cost_budget;
    summary.selected_cost =
        constraints->cost_of(std::span<const NodeId>(report.selected));
    summary.num_groups = constraints->group_caps.size();
    summary.num_blocked = constraints->blocked.size();
    summary.feasible =
        constraints->feasible_subset(std::span<const NodeId>(report.selected));
    report.constraints = summary;
  }
  if (report.timings.empty()) report.timings.push_back({"solve", solve_seconds});
  for (const core::RoundStats& round : report.rounds) {
    report.peak_partition_bytes =
        std::max(report.peak_partition_bytes, round.peak_partition_bytes);
    report.peak_kernel_state_bytes =
        std::max(report.peak_kernel_state_bytes, round.peak_state_bytes);
    // One machine holds one partition: its residency is the round input
    // spread over the round's partitions.
    if (round.num_partitions > 0) {
      report.peak_resident_elements = std::max(
          report.peak_resident_elements,
          (round.input_size + round.num_partitions - 1) / round.num_partitions);
    }
  }

  report.total_seconds = total.elapsed_seconds();
  return report;
}

SelectionReport select(const SelectionRequest& request) {
  SolverContext context;
  return SolverRegistry::instance().run(request, context);
}

SelectionReport select(const SelectionRequest& request, SolverContext& context) {
  return SolverRegistry::instance().run(request, context);
}

}  // namespace subsel::api
