#include "beam/beam_bounding.h"

#include <algorithm>

#include "common/rng.h"
#include "dataflow/transforms.h"

namespace subsel::beam {
namespace {

using dataflow::PCollection;
using dataflow::Pipeline;

/// Value of a fanned-graph record keyed by the neighbor: the edge's source
/// node and similarity.
struct FanRecord {
  NodeId source;
  float weight;
};

/// Value of a re-inverted edge keyed by the original node: the neighbor, the
/// similarity, and whether the neighbor sits in the partial solution.
struct EdgeInfo {
  NodeId neighbor;
  float weight;
  bool neighbor_selected;
};

using Keyed = std::pair<NodeId, std::uint8_t>;       // membership marker
using KeyedUtility = std::pair<NodeId, double>;      // unassigned id -> u(id)

/// Emits (id, marker) for every id in the given state.
PCollection<Keyed> membership_collection(Pipeline& pipeline,
                                         const GroundSet& ground_set,
                                         const SelectionState& state,
                                         core::PointState wanted) {
  auto ids = dataflow::from_generator<NodeId>(
      pipeline, ground_set.num_points(),
      [](std::size_t i) { return static_cast<NodeId>(i); });
  return dataflow::flat_map<Keyed>(ids, [&state, wanted](NodeId v, auto emit) {
    if (state.state(v) == wanted) emit(Keyed{v, std::uint8_t{1}});
  });
}

PCollection<KeyedUtility> unassigned_with_utilities(Pipeline& pipeline,
                                                    const GroundSet& ground_set,
                                                    const SelectionState& state) {
  auto ids = dataflow::from_generator<NodeId>(
      pipeline, ground_set.num_points(),
      [](std::size_t i) { return static_cast<NodeId>(i); });
  return dataflow::flat_map<KeyedUtility>(
      ids, [&state, &ground_set](NodeId v, auto emit) {
        if (state.is_unassigned(v)) emit(KeyedUtility{v, ground_set.utility(v)});
      });
}

/// Step 1: the fanned-out neighbor graph, keyed by the neighbor id.
PCollection<std::pair<NodeId, FanRecord>> fanned_neighbor_graph(
    Pipeline& pipeline, const GroundSet& ground_set) {
  auto ids = dataflow::from_generator<NodeId>(
      pipeline, ground_set.num_points(),
      [](std::size_t i) { return static_cast<NodeId>(i); });
  return dataflow::flat_map<std::pair<NodeId, FanRecord>>(
      ids, [&ground_set](NodeId v, auto emit) {
        thread_local std::vector<graph::Edge> scratch;
        for (const graph::Edge& e : ground_set.neighbors_span(v, scratch)) {
          emit({e.neighbor, FanRecord{v, e.weight}});
        }
      });
}

}  // namespace
}  // namespace subsel::beam

// approx_bytes overloads must be visible to the dataflow templates.
namespace subsel::dataflow {
inline std::size_t approx_bytes(const subsel::beam::UtilityBounds&) {
  return sizeof(subsel::beam::UtilityBounds);
}
}  // namespace subsel::dataflow

namespace subsel::beam {

dataflow::PCollection<std::pair<NodeId, UtilityBounds>> compute_bounds_collection(
    dataflow::Pipeline& pipeline, const GroundSet& ground_set,
    core::ObjectiveParams params, const SelectionState& state,
    const BoundingConfig& config, std::uint64_t round_salt) {
  auto fanned = fanned_neighbor_graph(pipeline, ground_set);
  auto solution =
      membership_collection(pipeline, ground_set, state, core::PointState::kSelected);
  auto unassigned = unassigned_with_utilities(pipeline, ground_set, state);

  // Step 2: classify each key a by the three-way join, drop edges whose
  // endpoint a was discarded, and re-invert to 4-tuples keyed by the node b.
  auto joined = dataflow::co_group_by_key(fanned, solution, unassigned);
  auto four_tuples = dataflow::flat_map<std::pair<NodeId, EdgeInfo>>(
      joined, [](const auto& row, auto emit) {
        const bool a_selected = !row.second.empty();
        const bool a_unassigned = !row.third.empty();
        if (!a_selected && !a_unassigned) return;  // a was discarded
        for (const FanRecord& fan : row.first) {
          emit({fan.source, EdgeInfo{row.key, fan.weight, a_selected}});
        }
      });

  // Step 3: join with the unassigned points on b and fold b's live
  // neighborhood into (Umin|Uexp, Umax).
  auto with_utilities = dataflow::co_group_by_key(four_tuples, unassigned);
  const BoundingConfig cfg = config;  // captured by value in the ParDo
  const double pair_scale = params.pair_scale();
  return dataflow::flat_map<std::pair<NodeId, UtilityBounds>>(
      with_utilities, [cfg, pair_scale, round_salt](const auto& row, auto emit) {
        if (row.right.empty()) return;  // b is selected or discarded
        const NodeId b = row.key;
        const double u = row.right.front();

        // Shuffle delivery order is nondeterministic; the in-memory reference
        // folds edges in CSR (neighbor-id) order. Restoring that order keeps
        // the floating-point sums bit-identical across the two paths.
        std::vector<EdgeInfo> edges(row.left.begin(), row.left.end());
        std::sort(edges.begin(), edges.end(),
                  [](const EdgeInfo& x, const EdgeInfo& y) {
                    return x.neighbor < y.neighbor;
                  });

        double mean_weight = 0.0;
        if (cfg.sampling == core::BoundingSampling::kWeighted && !edges.empty()) {
          for (const EdgeInfo& e : edges) mean_weight += e.weight;
          mean_weight /= static_cast<double>(edges.size());
        }

        UtilityBounds bounds{u, u};
        for (const EdgeInfo& e : edges) {
          if (e.neighbor_selected) {
            bounds.u_min -= pair_scale * e.weight;
            bounds.u_max -= pair_scale * e.weight;
          } else if (core::detail::sample_neighbor(cfg, round_salt, b, e.neighbor,
                                                   e.weight, mean_weight)) {
            bounds.u_min -= pair_scale * e.weight;
          }
        }
        emit({b, bounds});
      });
}

std::size_t beam_grow_step(dataflow::Pipeline& pipeline, const GroundSet& ground_set,
                           core::ObjectiveParams params, SelectionState& state,
                           std::size_t& k_remaining, const BoundingConfig& config,
                           std::uint64_t round_salt) {
  if (k_remaining == 0) return 0;
  auto bounds = compute_bounds_collection(pipeline, ground_set, params, state, config,
                                          round_salt);
  auto max_values = dataflow::map<double>(
      bounds, [](const auto& record) { return record.second.u_max; });
  const double threshold = dataflow::kth_largest_distributed(max_values, k_remaining);

  auto candidate_records = dataflow::flat_map<NodeId>(
      bounds, [threshold](const auto& record, auto emit) {
        if (record.second.u_min > threshold) emit(record.first);
      });
  std::vector<NodeId> candidates = dataflow::to_vector(candidate_records);
  std::sort(candidates.begin(), candidates.end());
  if (candidates.size() > k_remaining) {
    Rng rng(hash_combine(config.seed, round_salt ^ 0x6772ULL));
    rng.shuffle(std::span<NodeId>(candidates));
    candidates.resize(k_remaining);
  }
  for (NodeId v : candidates) state.select(v);
  k_remaining -= candidates.size();
  pipeline.increment_counter("grow_selected", candidates.size());
  return candidates.size();
}

std::size_t beam_shrink_step(dataflow::Pipeline& pipeline, const GroundSet& ground_set,
                             core::ObjectiveParams params, SelectionState& state,
                             std::size_t k_remaining, const BoundingConfig& config,
                             std::uint64_t round_salt) {
  auto bounds = compute_bounds_collection(pipeline, ground_set, params, state, config,
                                          round_salt);
  auto min_values = dataflow::map<double>(
      bounds, [](const auto& record) { return record.second.u_min; });
  const double threshold = dataflow::kth_largest_distributed(min_values, k_remaining);

  auto discard_records = dataflow::flat_map<NodeId>(
      bounds, [threshold](const auto& record, auto emit) {
        if (record.second.u_max < threshold) emit(record.first);
      });
  const std::vector<NodeId> discards = dataflow::to_vector(discard_records);
  for (NodeId v : discards) state.discard(v);
  pipeline.increment_counter("shrink_discarded", discards.size());
  return discards.size();
}

BoundingResult beam_bound(dataflow::Pipeline& pipeline,
                          const core::ObjectiveKernel& kernel, std::size_t k,
                          const BoundingConfig& config) {
  const core::ObjectiveParams params =
      core::detail::bounding_params(kernel, "beam_bound");
  const GroundSet& ground_set = kernel.ground_set();
  const std::size_t n = ground_set.num_points();
  BoundingResult result;
  result.state = SelectionState(n);
  result.k_remaining = std::min(k, n);
  if (result.k_remaining == 0) return result;

  // Identical control flow, salt sequence, and convergence detection as
  // core::bound (see the comment there); only the step bodies differ.
  std::uint64_t salt = 0;
  std::size_t total_rounds = 0;
  bool first_pass = true;

  // Same pass-boundary deadline rule as core::bound: every decision is
  // monotone, so stopping between passes leaves a valid partial state.
  auto out_of_time = [&result, &config]() {
    if (!config.deadline.expired()) return false;
    result.degraded = true;
    return true;
  };

  // Same tight-completion rule as core::bound: once the survivors exactly
  // fill the open budget, they are the subset (see the comment there).
  auto complete_if_tight = [&result, &pipeline]() {
    if (result.k_remaining == 0 ||
        result.state.num_unassigned() != result.k_remaining) {
      return false;
    }
    const auto remaining = result.state.unassigned_ids();
    for (NodeId v : remaining) result.state.select(v);
    pipeline.increment_counter("grow_selected", remaining.size());
    result.k_remaining = 0;
    return true;
  };

  for (;;) {
    std::size_t shrink_changes = 0;
    for (;;) {
      if (out_of_time()) break;
      ++result.shrink_rounds;
      const std::size_t changed =
          beam_shrink_step(pipeline, ground_set, params, result.state,
                           result.k_remaining, config, ++salt);
      shrink_changes += changed;
      if (changed == 0 || ++total_rounds >= config.max_rounds) break;
    }
    if (complete_if_tight()) break;
    if (result.degraded) break;
    if (!first_pass && shrink_changes == 0) break;
    if (result.k_remaining == 0 || total_rounds >= config.max_rounds) break;

    std::size_t grow_changes = 0;
    for (;;) {
      if (out_of_time()) break;
      ++result.grow_rounds;
      const std::size_t changed =
          beam_grow_step(pipeline, ground_set, params, result.state,
                         result.k_remaining, config, ++salt);
      grow_changes += changed;
      if (changed == 0 || result.k_remaining == 0 ||
          ++total_rounds >= config.max_rounds) {
        break;
      }
    }
    if (complete_if_tight()) break;
    if (result.degraded) break;
    if (grow_changes == 0 || result.k_remaining == 0 ||
        total_rounds >= config.max_rounds) {
      break;
    }
    first_pass = false;
  }

  result.included = result.state.num_selected();
  result.excluded = result.state.num_discarded();
  return result;
}

}  // namespace subsel::beam
