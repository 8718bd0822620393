#include "core/greedy.h"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <string>

#include "core/addressable_heap.h"

namespace subsel::core {

void validate_epsilon(double epsilon, const char* who) {
  // Negated comparison so NaN fails too.
  if (!(epsilon > 0.0 && epsilon < 1.0)) {
    throw std::invalid_argument(std::string(who) +
                                ": epsilon must be in (0, 1), got " +
                                std::to_string(epsilon));
  }
}

const Subproblem& materialize_subproblem(const GroundSet& ground_set,
                                         std::span<const NodeId> members,
                                         ObjectiveParams params,
                                         const SelectionState* state,
                                         SubproblemArena& arena) {
  Subproblem& sub = arena.subproblem();
  sub.global_ids.assign(members.begin(), members.end());
  std::sort(sub.global_ids.begin(), sub.global_ids.end());
  if (std::adjacent_find(sub.global_ids.begin(), sub.global_ids.end()) !=
      sub.global_ids.end()) {
    throw std::invalid_argument("materialize_subproblem: duplicate member");
  }

  const std::size_t n = sub.global_ids.size();
  sub.priorities.resize(n);
  sub.offsets.resize(n + 1);
  sub.offsets[0] = 0;
  sub.edges.clear();

  // O(1) membership via the epoch-stamped scatter map; ground sets too large
  // for the dense map (virtual billion-point sets) keep the binary search.
  const bool dense = arena.begin_membership_epoch(ground_set.num_points());
  if (dense) {
    for (std::size_t i = 0; i < n; ++i) {
      arena.insert_member(sub.global_ids[i], static_cast<std::uint32_t>(i));
    }
  }

  const double pair_scale = params.pair_scale();
  std::vector<graph::Edge>& scratch = arena.edge_scratch();
  for (std::size_t i = 0; i < n; ++i) {
    const NodeId v = sub.global_ids[i];
    double priority = ground_set.utility(v);
    for (const graph::Edge& e : ground_set.neighbors_span(v, scratch)) {
      if (state != nullptr && state->is_selected(e.neighbor)) {
        priority -= pair_scale * e.weight;
        continue;
      }
      std::uint32_t local = SubproblemArena::kNotMember;
      if (dense) {
        local = arena.local_of(e.neighbor);
      } else {
        const auto it = std::lower_bound(sub.global_ids.begin(),
                                         sub.global_ids.end(), e.neighbor);
        if (it != sub.global_ids.end() && *it == e.neighbor) {
          local = static_cast<std::uint32_t>(it - sub.global_ids.begin());
        }
      }
      if (local != SubproblemArena::kNotMember) {
        sub.edges.push_back(Subproblem::LocalEdge{local, e.weight});
      }
    }
    sub.priorities[i] = priority;
    sub.offsets[i + 1] = static_cast<std::int64_t>(sub.edges.size());
  }
  return sub;
}

Subproblem& materialize_subproblem_topology(const GroundSet& ground_set,
                                            std::span<const NodeId> members,
                                            SubproblemArena& arena) {
  Subproblem& sub = arena.subproblem();
  sub.global_ids.assign(members.begin(), members.end());
  std::sort(sub.global_ids.begin(), sub.global_ids.end());
  if (std::adjacent_find(sub.global_ids.begin(), sub.global_ids.end()) !=
      sub.global_ids.end()) {
    throw std::invalid_argument("materialize_subproblem_topology: duplicate member");
  }

  const std::size_t n = sub.global_ids.size();
  sub.priorities.resize(n);  // filled by the kernel's incremental state
  sub.offsets.resize(n + 1);
  sub.offsets[0] = 0;
  sub.edges.clear();

  const bool dense = arena.begin_membership_epoch(ground_set.num_points());
  if (dense) {
    for (std::size_t i = 0; i < n; ++i) {
      arena.insert_member(sub.global_ids[i], static_cast<std::uint32_t>(i));
    }
  }

  std::vector<graph::Edge>& scratch = arena.edge_scratch();
  for (std::size_t i = 0; i < n; ++i) {
    const NodeId v = sub.global_ids[i];
    for (const graph::Edge& e : ground_set.neighbors_span(v, scratch)) {
      std::uint32_t local = SubproblemArena::kNotMember;
      if (dense) {
        local = arena.local_of(e.neighbor);
      } else {
        const auto it = std::lower_bound(sub.global_ids.begin(),
                                         sub.global_ids.end(), e.neighbor);
        if (it != sub.global_ids.end() && *it == e.neighbor) {
          local = static_cast<std::uint32_t>(it - sub.global_ids.begin());
        }
      }
      if (local != SubproblemArena::kNotMember) {
        sub.edges.push_back(Subproblem::LocalEdge{local, e.weight});
      }
    }
    sub.offsets[i + 1] = static_cast<std::int64_t>(sub.edges.size());
  }
  return sub;
}

GreedyResult greedy_on_subproblem(const Subproblem& subproblem, std::size_t k,
                                  ObjectiveParams params, SubproblemArena& arena,
                                  ConstraintTracker* tracker) {
  const std::size_t n = subproblem.size();
  k = std::min(k, n);
  GreedyResult result;
  result.selected.reserve(k);

  AddressableMaxHeap& heap = arena.heap();
  heap.assign(subproblem.priorities);
  const double pair_scale = params.pair_scale();
  double priority_sum = 0.0;
  // Constrained pops that the tracker rejects are dropped for good (monotone
  // infeasibility), which can drain the heap before k accepts — hence the
  // empty() guard, unreachable when tracker == nullptr.
  while (result.selected.size() < k && !heap.empty()) {
    const auto v1 = heap.pop_max();
    if (tracker != nullptr && !tracker->feasible(subproblem.global_ids[v1])) {
      continue;
    }
    priority_sum += heap.priority(v1);
    result.selected.push_back(subproblem.global_ids[v1]);
    if (tracker != nullptr) tracker->accept(subproblem.global_ids[v1]);
    const auto begin = static_cast<std::size_t>(subproblem.offsets[v1]);
    const auto end = static_cast<std::size_t>(subproblem.offsets[v1 + 1]);
    // Fused per-edge decrease straight off the CSR slice (popped neighbors
    // are skipped inside).
    heap.decrease_edges(subproblem.edges.data() + begin, end - begin, pair_scale);
  }
  result.objective = params.alpha * priority_sum;
  return result;
}

GreedyResult incremental_greedy_on_subproblem(const Subproblem& subproblem,
                                              std::size_t k,
                                              KernelIncrementalState& state,
                                              SubproblemArena& arena,
                                              ConstraintTracker* tracker) {
  const std::size_t n = subproblem.size();
  k = std::min(k, n);
  GreedyResult result;
  result.selected.reserve(k);

  AddressableMaxHeap& heap = arena.heap();
  heap.assign(subproblem.priorities);
  // version[v] = |selection| when v's heap priority was last computed; the
  // top of the heap is only trusted when its gain is fresh.
  std::vector<std::uint32_t>& version = arena.version_scratch();
  version.assign(n, 0);
  std::vector<std::uint32_t>& batch = arena.candidate_scratch();
  std::vector<double>& fresh = arena.gain_scratch();
  // Refresh batches ramp 1 -> 2 -> 4 ... up to kGainRefreshBatch while the
  // top keeps coming up stale after an accept, and reset on every accept:
  // easy accepts pay zero speculative evaluations, deeply stale stretches
  // amortize toward one virtual call (and one heap restore) per
  // kGainRefreshBatch candidates.
  std::size_t batch_limit = 1;
  while (result.selected.size() < k && !heap.empty()) {
    const auto top = heap.peek();
    if (tracker != nullptr && !tracker->feasible(subproblem.global_ids[top])) {
      heap.pop_max();  // monotone infeasibility: dropped for good
      continue;
    }
    const auto selection_size = static_cast<std::uint32_t>(result.selected.size());
    if (version[top] == selection_size) {
      heap.pop_max();
      result.objective += heap.priority(top);
      result.selected.push_back(subproblem.global_ids[top]);
      if (tracker != nullptr) tracker->accept(subproblem.global_ids[top]);
      state.select(top);
      batch_limit = 1;
      continue;
    }
    if (batch_limit == 1) {
      // Single stale top: refresh in place (one sift). Submodularity: the
      // fresh gain can only be lower, so the heap stays an upper bound.
      version[top] = selection_size;
      heap.update(top, state.gain(top));
      batch_limit = 2;
      continue;
    }
    // Pop the run of stale tops (the current best upper bounds), refresh them
    // all with one batched evaluation, and push them back. Submodularity
    // makes every fresh gain <= its stale key, so this is a batched decrease;
    // the (priority, id) pop order is independent of the refresh schedule, so
    // the accepted element each step matches the one-at-a-time driver.
    batch.clear();
    while (batch.size() < batch_limit && !heap.empty() &&
           version[heap.peek()] != selection_size) {
      const auto v = heap.pop_max();
      version[v] = selection_size;
      batch.push_back(v);
    }
    fresh.resize(batch.size());
    state.gains_batch(batch, fresh);
    for (std::size_t i = 0; i < batch.size(); ++i) heap.push(batch[i], fresh[i]);
    batch_limit = std::min(kGainRefreshBatch, batch_limit * 2);
  }
  return result;
}

GreedyResult solve_partition(const ObjectiveKernel& kernel,
                             std::span<const NodeId> members, std::size_t k,
                             const SelectionState* state, SubproblemArena& arena,
                             std::size_t* materialized_bytes,
                             std::size_t* state_bytes,
                             const ConstraintSet* constraints) {
  const auto finish = [&](GreedyResult result, std::size_t sub_bytes,
                          std::size_t kernel_bytes) {
    result.materialized_bytes = sub_bytes;
    result.kernel_state_bytes = kernel_bytes;
    if (materialized_bytes != nullptr) *materialized_bytes = sub_bytes;
    if (state_bytes != nullptr) *state_bytes = kernel_bytes;
    return result;
  };

  // Constrained solves track budgets over the whole run: already-selected
  // points (bounding survivors, earlier rounds) count via the state seed.
  std::optional<ConstraintTracker> tracker;
  ConstraintTracker* tracker_ptr = nullptr;
  if (constraints != nullptr && !constraints->empty()) {
    tracker.emplace(*constraints);
    if (state != nullptr) tracker->seed(state->selected_ids());
    tracker_ptr = &*tracker;
  }

  const GroundSet& ground_set = kernel.ground_set();
  if (const ObjectiveParams* params = kernel.pairwise_params()) {
    // Closed-form path: priorities are the marginal gains.
    const Subproblem& sub =
        materialize_subproblem(ground_set, members, *params, state, arena);
    return finish(greedy_on_subproblem(sub, k, *params, arena, tracker_ptr),
                  sub.byte_size(), 0);
  }
  Subproblem& sub = materialize_subproblem_topology(ground_set, members, arena);
  const std::unique_ptr<KernelIncrementalState> incremental =
      kernel.make_incremental_state(arena);
  incremental->reset(sub, state);
  return finish(
      incremental_greedy_on_subproblem(sub, k, *incremental, arena, tracker_ptr),
      sub.byte_size(), incremental->state_bytes());
}

GreedyResult centralized_greedy(const graph::SimilarityGraph& graph,
                                const std::vector<double>& utilities,
                                ObjectiveParams params, std::size_t k) {
  if (graph.num_nodes() != utilities.size()) {
    throw std::invalid_argument("centralized_greedy: size mismatch");
  }
  const std::size_t n = graph.num_nodes();
  k = std::min(k, n);
  GreedyResult result;
  result.selected.reserve(k);

  AddressableMaxHeap heap(utilities);
  const double pair_scale = params.pair_scale();
  double priority_sum = 0.0;
  while (result.selected.size() < k) {
    const auto v1 = heap.pop_max();
    priority_sum += heap.priority(v1);
    result.selected.push_back(static_cast<NodeId>(v1));
    for (const graph::Edge& edge : graph.neighbors(static_cast<NodeId>(v1))) {
      const auto local = static_cast<AddressableMaxHeap::LocalId>(edge.neighbor);
      if (heap.contains(local)) {
        heap.decrease_weight_by(local, pair_scale * edge.weight);
      }
    }
  }
  result.objective = params.alpha * priority_sum;
  return result;
}

}  // namespace subsel::core
