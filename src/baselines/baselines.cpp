#include "baselines/baselines.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <optional>
#include <queue>
#include <span>

#include "baselines/gain_engine.h"
#include "common/atomic_util.h"
#include "common/rng.h"

namespace subsel::baselines {
namespace {

ThreadPool& pool_or_global(ThreadPool* pool) {
  return pool != nullptr ? *pool : global_thread_pool();
}

}  // namespace

GreedyResult random_selection(const ObjectiveKernel& kernel, std::size_t k,
                              std::uint64_t seed,
                              const core::ConstraintSet* constraints,
                              ThreadPool* pool) {
  const std::size_t n = kernel.ground_set().num_points();
  k = std::min(k, n);
  Rng rng(seed);
  GreedyResult result;
  result.selected.reserve(k);
  if (constraints == nullptr || constraints->empty()) {
    const auto picks = rng.sample_without_replacement(n, k);
    for (std::uint64_t index : picks) {
      result.selected.push_back(static_cast<NodeId>(index));
    }
  } else {
    // Feasible prefix of a uniform random permutation: each element is
    // considered in random order and taken iff the budgets still admit it.
    std::vector<NodeId> order(n);
    for (std::size_t i = 0; i < n; ++i) order[i] = static_cast<NodeId>(i);
    rng.shuffle(std::span<NodeId>(order));
    core::ConstraintTracker tracker(*constraints);
    for (const NodeId v : order) {
      if (result.selected.size() >= k) break;
      if (!tracker.feasible(v)) continue;
      tracker.accept(v);
      result.selected.push_back(v);
    }
  }
  std::sort(result.selected.begin(), result.selected.end());
  result.objective = kernel.evaluate(std::span<const NodeId>(result.selected), pool);
  return result;
}

GreeDiResult greedi(const ObjectiveKernel& kernel, std::size_t k,
                    const GreeDiConfig& config) {
  const std::size_t n = kernel.ground_set().num_points();
  k = std::min(k, n);
  const std::size_t m = std::max<std::size_t>(1, config.num_machines);

  // Partition the ground set.
  std::vector<NodeId> ids(n);
  for (std::size_t i = 0; i < n; ++i) ids[i] = static_cast<NodeId>(i);
  if (config.scheme == PartitionScheme::kRandom) {
    Rng rng(config.seed);
    rng.shuffle(std::span<NodeId>(ids));
  }
  std::vector<std::vector<NodeId>> partitions(m);
  const std::size_t base = n / m;
  const std::size_t extra = n % m;
  std::size_t cursor = 0;
  for (std::size_t p = 0; p < m; ++p) {
    const std::size_t size = base + (p < extra ? 1 : 0);
    partitions[p].assign(ids.begin() + static_cast<std::ptrdiff_t>(cursor),
                         ids.begin() + static_cast<std::ptrdiff_t>(cursor + size));
    cursor += size;
  }

  // Per-partition greedy, selecting k each (capped by partition size), on
  // per-worker reusable arenas. solve_partition dispatches: pairwise kernels
  // take the closed-form arena path, others the batched incremental-state
  // driver.
  core::SubproblemArenaPool arena_pool;
  std::vector<std::vector<NodeId>> partials(m);
  std::atomic<std::size_t> peak_bytes{0};
  std::atomic<std::size_t> peak_state_bytes{0};
  pool_or_global(config.pool).parallel_for(m, [&](std::size_t p) {
    core::SubproblemArenaPool::Lease arena(arena_pool);
    GreedyResult local = core::solve_partition(kernel, partitions[p], k, nullptr,
                                               *arena, nullptr, nullptr,
                                               config.constraints);
    atomic_fetch_max(peak_bytes, local.materialized_bytes);
    atomic_fetch_max(peak_state_bytes, local.kernel_state_bytes);
    partials[p] = std::move(local.selected);
  });

  // The centralized merge: greedy over the union — the step that needs one
  // machine with Θ(m·k) candidates resident.
  std::vector<NodeId> merge_input;
  for (const auto& partial : partials) {
    merge_input.insert(merge_input.end(), partial.begin(), partial.end());
  }
  GreeDiResult result;
  result.merge_candidates = merge_input.size();
  core::SubproblemArenaPool::Lease merge_arena(arena_pool);
  // The merge solve re-enforces the constraints from scratch over the union,
  // so per-partition selections that jointly over-commit a global budget are
  // rounded back down to a feasible final selection.
  GreedyResult merged =
      core::solve_partition(kernel, merge_input, k, nullptr, *merge_arena,
                            &result.merge_bytes, nullptr, config.constraints);
  atomic_fetch_max(peak_bytes, merged.materialized_bytes);
  atomic_fetch_max(peak_state_bytes, merged.kernel_state_bytes);
  result.peak_partition_bytes = peak_bytes.load();
  result.peak_state_bytes = peak_state_bytes.load();

  result.selected = std::move(merged.selected);
  std::sort(result.selected.begin(), result.selected.end());
  result.objective =
      kernel.evaluate(std::span<const NodeId>(result.selected), config.pool);
  return result;
}

KCenterResult greedy_k_center(const graph::EmbeddingMatrix& embeddings,
                              const ObjectiveKernel& kernel, std::size_t k,
                              NodeId first_center) {
  const std::size_t n = embeddings.rows();
  k = std::min(k, n);
  KCenterResult result;
  if (k == 0 || n == 0) return result;

  // Cosine distance 1 - <a,b> on normalized rows; track, per point, the
  // distance to its nearest chosen center.
  const auto distance = [&embeddings](std::size_t a, std::size_t b) {
    const auto ra = embeddings.row(a);
    const auto rb = embeddings.row(b);
    double dot = 0.0;
    for (std::size_t d = 0; d < ra.size(); ++d) {
      dot += static_cast<double>(ra[d]) * static_cast<double>(rb[d]);
    }
    return 1.0 - dot;
  };

  std::vector<double> nearest(n, std::numeric_limits<double>::infinity());
  auto center = static_cast<std::size_t>(first_center);
  result.selected.reserve(k);
  for (std::size_t step = 0; step < k; ++step) {
    result.selected.push_back(static_cast<NodeId>(center));
    std::size_t farthest = center;
    double farthest_distance = -1.0;
    for (std::size_t i = 0; i < n; ++i) {
      nearest[i] = std::min(nearest[i], distance(i, center));
      if (nearest[i] > farthest_distance) {
        farthest_distance = nearest[i];
        farthest = i;
      }
    }
    result.radius = farthest_distance;
    center = farthest;
  }

  std::sort(result.selected.begin(), result.selected.end());
  result.objective = kernel.evaluate(std::span<const NodeId>(result.selected));
  return result;
}

GreedyResult lazy_greedy(const ObjectiveKernel& kernel, std::size_t k,
                         Deadline deadline,
                         const core::ConstraintSet* constraints) {
  const std::size_t n = kernel.ground_set().num_points();
  k = std::min(k, n);
  GreedyResult result;
  result.selected.reserve(k);
  MarginalGainEngine engine(kernel);
  std::optional<core::ConstraintTracker> tracker;
  if (constraints != nullptr && !constraints->empty()) {
    tracker.emplace(*constraints);
  }

  // Heap entries are (stale gain, id, |S| when the gain was computed);
  // outranking = higher gain, smaller id on ties — consistent with the other
  // implementations. The deadline is checked once per accepted element (not
  // per re-evaluation): every prefix of the greedy sequence is itself the
  // exact answer for its own budget, so stopping there degrades gracefully.
  struct Entry {
    double gain;
    NodeId id;
    std::size_t version;
  };
  auto worse = [](const Entry& a, const Entry& b) {
    if (a.gain != b.gain) return a.gain < b.gain;
    return a.id > b.id;
  };
  std::priority_queue<Entry, std::vector<Entry>, decltype(worse)> queue(worse);
  for (std::size_t i = 0; i < n; ++i) {
    queue.push(Entry{kernel.singleton_value(static_cast<NodeId>(i)),
                     static_cast<NodeId>(i), 0});
  }
  double total = 0.0;
  while (result.selected.size() < k && !queue.empty()) {
    Entry top = queue.top();
    queue.pop();
    // Infeasible elements are dropped for good: spent cost and group counts
    // only grow, so an element the budgets reject now stays rejected.
    if (tracker && !tracker->feasible(top.id)) continue;
    if (top.version == result.selected.size()) {  // gain is fresh: take it
      if (deadline.expired()) {
        result.degraded = true;
        break;
      }
      engine.select(top.id);
      if (tracker) tracker->accept(top.id);
      result.selected.push_back(top.id);
      total += top.gain;
      continue;
    }
    top.gain = engine.gain(top.id);
    top.version = result.selected.size();
    queue.push(top);
  }
  result.objective = total;
  result.materialized_bytes = engine.materialized_bytes();
  result.kernel_state_bytes = engine.kernel_state_bytes();
  return result;
}

GreedyResult stochastic_greedy(const ObjectiveKernel& kernel, std::size_t k,
                               double epsilon, std::uint64_t seed,
                               Deadline deadline,
                               const core::ConstraintSet* constraints) {
  const std::size_t n = kernel.ground_set().num_points();
  k = std::min(k, n);
  GreedyResult result;
  result.selected.reserve(k);
  core::validate_epsilon(epsilon, "stochastic_greedy");
  if (k == 0) return result;

  const std::size_t sample_size = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::ceil(static_cast<double>(n) /
                                            static_cast<double>(k) *
                                            std::log(1.0 / epsilon))));
  Rng rng(seed);
  MarginalGainEngine engine(kernel);
  std::optional<core::ConstraintTracker> tracker;
  double max_cost = 0.0;
  if (constraints != nullptr && !constraints->empty()) {
    tracker.emplace(*constraints);
    if (constraints->has_knapsack()) {
      max_cost = *std::max_element(constraints->costs.begin(),
                                   constraints->costs.end());
    }
  }
  std::vector<NodeId> remaining(n);
  for (std::size_t i = 0; i < n; ++i) remaining[i] = static_cast<NodeId>(i);
  std::vector<double> gains;

  double total = 0.0;
  bool recheck_pool = tracker.has_value();
  for (std::size_t step = 0; step < k; ++step) {
    if (deadline.expired()) {
      result.degraded = true;
      break;
    }
    if (recheck_pool) {
      // Monotone infeasibility: an element the budgets reject now stays
      // rejected forever, so the pool is compacted for good.
      std::erase_if(remaining,
                    [&](NodeId v) { return !tracker->feasible(v); });
    }
    if (remaining.empty()) break;
    const std::size_t draw = std::min(sample_size, remaining.size());
    // Partial Fisher-Yates: the first `draw` slots become the random sample.
    for (std::size_t i = 0; i < draw; ++i) {
      const std::size_t j = i + static_cast<std::size_t>(
                                    rng.uniform_index(remaining.size() - i));
      std::swap(remaining[i], remaining[j]);
    }
    // One batched evaluation of the whole sample.
    gains.resize(draw);
    engine.gains_batch(std::span<const NodeId>(remaining.data(), draw), gains);
    double best_gain = -std::numeric_limits<double>::infinity();
    std::size_t best_slot = 0;
    for (std::size_t i = 0; i < draw; ++i) {
      if (gains[i] > best_gain ||
          (gains[i] == best_gain && remaining[i] < remaining[best_slot])) {
        best_gain = gains[i];
        best_slot = i;
      }
    }
    const NodeId chosen = remaining[best_slot];
    engine.select(chosen);
    if (tracker) {
      tracker->accept(chosen);
      // The compaction is an O(n) scan, so skip it while it would remove
      // nothing: a pooled element can only have turned infeasible if this
      // acceptance filled its group (then `chosen` itself no longer fits)
      // or left less budget than the largest cost.
      recheck_pool = !tracker->feasible(chosen) ||
                     (constraints->has_knapsack() &&
                      !constraints->fits_cost(tracker->spent_cost(), max_cost));
    }
    result.selected.push_back(chosen);
    total += best_gain;
    std::swap(remaining[best_slot], remaining.back());
    remaining.pop_back();
  }
  result.objective = total;
  result.materialized_bytes = engine.materialized_bytes();
  result.kernel_state_bytes = engine.kernel_state_bytes();
  return result;
}

}  // namespace subsel::baselines
