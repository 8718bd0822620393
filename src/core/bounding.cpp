#include "core/bounding.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/rng.h"
#include "common/topk.h"

namespace subsel::core {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

/// A rebuilt Grow window holds the unassigned points whose Umax ranks within
/// this many times the open budget. Any factor ≥ 1 makes the same decisions;
/// a larger one rebuilds less often and prunes a longer window every pass.
constexpr std::size_t kGrowWindowFactor = 2;

ThreadPool& pool_or_global(ThreadPool* pool) {
  return pool != nullptr ? *pool : global_thread_pool();
}

/// Collects the values of unassigned points from a bounds array.
std::vector<double> unassigned_values(const SelectionState& state,
                                      const std::vector<double>& bounds) {
  std::vector<double> values;
  values.reserve(state.num_unassigned());
  for (std::size_t i = 0; i < bounds.size(); ++i) {
    if (state.is_unassigned(static_cast<NodeId>(i))) values.push_back(bounds[i]);
  }
  return values;
}

/// Reads the neighborhood of every id in `ids` (ascending, so file order on
/// an out-of-core ground set) on the pool and calls visit(i, ids[i], edges).
/// The leading `prefetch_depth` worker chunks go to the ground set first as
/// async page-in hints (no-op for resident sets): the hint tasks precede the
/// chunks in the pool queue, so an out-of-core backend does its leading block
/// I/O batched and in file order.
template <typename Visit>
void for_each_neighborhood(const GroundSet& ground_set, std::span<const NodeId> ids,
                           const BoundingConfig& config, Visit&& visit) {
  if (ids.empty()) return;
  ThreadPool& workers = pool_or_global(config.pool);
  const std::size_t num_chunks =
      std::min(ids.size(), std::max<std::size_t>(1, workers.size() * 4));
  const std::size_t chunk = (ids.size() + num_chunks - 1) / num_chunks;

  if (config.prefetch_depth > 0) {
    const std::size_t hint_end =
        std::min(ids.size(), chunk * std::min(config.prefetch_depth, num_chunks));
    ground_set.prefetch(ids.first(hint_end), &workers);
  }

  workers.parallel_for(num_chunks, [&](std::size_t c) {
    const std::size_t begin = std::min(ids.size(), c * chunk);
    const std::size_t end = std::min(ids.size(), begin + chunk);
    std::vector<graph::Edge> scratch;
    for (std::size_t i = begin; i < end; ++i) {
      visit(i, ids[i], ground_set.neighbors_span(ids[i], scratch));
    }
  });
}

struct PointBounds {
  double expected;  // Umin, or Uexp under sampling
  double max;       // Umax
};

/// The one per-point fold behind every bound in this file. Both bounds start
/// at u(v) and walk v's neighborhood in CSR order: neighbors in S′ subtract
/// β/α·s(v,v2) from both, unassigned neighbors the round's sample keeps (all
/// of them under exact bounding) from Uexp only, discarded neighbors from
/// neither.
///
/// Because weights are non-negative and rounding is monotone, folding a
/// superset of Umax's subtractions in the same order gives Uexp ≤ Umax bit
/// for bit, not just in exact arithmetic — which is what lets Grow prune.
PointBounds fold_bounds(const GroundSet& ground_set, ObjectiveParams params,
                        const SelectionState& state, const BoundingConfig& config,
                        std::uint64_t round_salt, NodeId v,
                        std::span<const graph::Edge> edges) {
  const double pair_scale = params.pair_scale();
  const bool sampling = config.sampling != BoundingSampling::kNone;

  // Weighted sampling normalizes by the mean similarity over the *live*
  // (non-discarded) neighborhood, which is what the distributed joins in
  // beam/ can observe — keeping both implementations bit-identical.
  double mean_weight = 0.0;
  if (config.sampling == BoundingSampling::kWeighted) {
    std::size_t live = 0;
    for (const graph::Edge& e : edges) {
      if (state.state(e.neighbor) != PointState::kDiscarded) {
        mean_weight += e.weight;
        ++live;
      }
    }
    if (live > 0) mean_weight /= static_cast<double>(live);
  }

  const double u = ground_set.utility(v);
  PointBounds bounds{u, u};
  for (const graph::Edge& e : edges) {
    switch (state.state(e.neighbor)) {
      case PointState::kSelected:
        // Neighbors in S′ are always counted, in both bounds.
        bounds.expected -= pair_scale * e.weight;
        bounds.max -= pair_scale * e.weight;
        break;
      case PointState::kUnassigned:
        if (!sampling || detail::sample_neighbor(config, round_salt, v, e.neighbor,
                                                 e.weight, mean_weight)) {
          bounds.expected -= pair_scale * e.weight;
        }
        break;
      case PointState::kDiscarded:
        break;  // removed from the ground set; affects neither bound
    }
  }
  return bounds;
}

}  // namespace

namespace detail {

ObjectiveParams bounding_params(const ObjectiveKernel& kernel, const char* who) {
  const ObjectiveParams* params = kernel.pairwise_params();
  if (params == nullptr) {
    throw std::invalid_argument(
        std::string(who) +
        ": the bounding pre-pass requires an objective with utility-bound support"
        " (kernel \"" +
        std::string(kernel.name()) +
        "\" has none); disable bounding to run this kernel");
  }
  return *params;
}

bool sample_neighbor(const BoundingConfig& config, std::uint64_t round_salt, NodeId v,
                     NodeId neighbor, float weight, double mean_weight) {
  double probability;
  switch (config.sampling) {
    case BoundingSampling::kNone:
      return true;
    case BoundingSampling::kUniform:
      probability = config.sample_fraction;
      break;
    case BoundingSampling::kWeighted:
      // Inclusion probability proportional to the edge similarity, normalized
      // by the neighborhood mean so the expected sampled count stays p·deg.
      probability = mean_weight > 0.0
                        ? config.sample_fraction * static_cast<double>(weight) /
                              mean_weight
                        : config.sample_fraction;
      probability = std::min(probability, 1.0);
      break;
    default:
      return true;
  }
  const std::uint64_t h = hash_combine(
      hash_combine(hash_combine(config.seed, round_salt),
                   static_cast<std::uint64_t>(v)),
      static_cast<std::uint64_t>(neighbor));
  return hash_to_unit(h) < probability;
}

void compute_utility_bounds(const GroundSet& ground_set, ObjectiveParams params,
                            const SelectionState& state, const BoundingConfig& config,
                            std::uint64_t round_salt, std::vector<double>& u_min,
                            std::vector<double>& u_max) {
  const std::size_t n = ground_set.num_points();
  u_min.assign(n, kNaN);
  u_max.assign(n, kNaN);
  const std::vector<NodeId> unassigned = state.unassigned_ids();
  for_each_neighborhood(
      ground_set, unassigned, config,
      [&](std::size_t, NodeId v, std::span<const graph::Edge> edges) {
        const PointBounds bounds =
            fold_bounds(ground_set, params, state, config, round_salt, v, edges);
        u_min[static_cast<std::size_t>(v)] = bounds.expected;
        u_max[static_cast<std::size_t>(v)] = bounds.max;
      });
}

}  // namespace detail

void GrowState::prune(const SelectionState& state) {
  std::erase_if(window_, [&](NodeId v) {
    return !state.is_unassigned(v) || !(u_max_[static_cast<std::size_t>(v)] >= floor_);
  });
}

double GrowState::kth_largest_u_max(const SelectionState& state, std::size_t k) {
  prune(state);  // a Shrink pass may have discarded window points since
  if (window_.size() < k && floor_ > -kInf) {
    floor_ = kth_largest(unassigned_values(state, u_max_), kGrowWindowFactor * k);
    window_.clear();
    for (std::size_t i = 0; i < u_max_.size(); ++i) {
      const auto v = static_cast<NodeId>(i);
      if (state.is_unassigned(v) && u_max_[i] >= floor_) window_.push_back(v);
    }
  }
  // The window holds every unassigned point at or above the floor and, unless
  // that is all of them, at least k: its k-th largest is the global one.
  std::vector<double> values(window_.size());
  for (std::size_t i = 0; i < window_.size(); ++i) {
    values[i] = u_max_[static_cast<std::size_t>(window_[i])];
  }
  return kth_largest(values, k);
}

std::size_t grow_step(const GroundSet& ground_set, ObjectiveParams params,
                      SelectionState& state, std::size_t& k_remaining,
                      GrowState& grow, const BoundingConfig& config,
                      std::uint64_t round_salt) {
  if (k_remaining == 0) return 0;
  std::vector<double>& u_max = grow.u_max_;
  assert(u_max.size() == state.size());

  // Threshold = U^k_max, the k-th largest maximum utility (Alg. 3).
  const double threshold = grow.kth_largest_u_max(state, k_remaining);

  // Uexp ≤ Umax (see fold_bounds), so only the fewer than k_remaining points
  // whose Umax already clears the threshold can pass Uexp > threshold; those
  // are the only neighborhoods this pass reads before it selects. They all
  // sit in the window, which is in ascending id order.
  std::vector<NodeId> probes;
  for (NodeId v : grow.window_) {
    if (u_max[static_cast<std::size_t>(v)] > threshold) probes.push_back(v);
  }
  // A candidate's unassigned neighbors are kept from this same read: they are
  // the points whose Umax moves if it is selected.
  std::vector<double> expected(probes.size());
  std::vector<std::vector<NodeId>> touched(probes.size());
  for_each_neighborhood(
      ground_set, probes, config,
      [&](std::size_t i, NodeId v, std::span<const graph::Edge> edges) {
        expected[i] =
            fold_bounds(ground_set, params, state, config, round_salt, v, edges)
                .expected;
        if (!(expected[i] > threshold)) return;
        for (const graph::Edge& e : edges) {
          if (state.is_unassigned(e.neighbor)) touched[i].push_back(e.neighbor);
        }
      });

  std::vector<NodeId> candidates;
  for (std::size_t i = 0; i < probes.size(); ++i) {
    if (expected[i] > threshold) candidates.push_back(probes[i]);
  }
  // Approximate bounding can over-grow; keep a uniform subsample of the right
  // size (Sec. 4.2). Exact bounding never exceeds k (Lemma 4.3).
  if (candidates.size() > k_remaining) {
    Rng rng(hash_combine(config.seed, round_salt ^ 0x6772ULL));
    rng.shuffle(std::span<NodeId>(candidates));
    candidates.resize(k_remaining);
  }
  for (NodeId v : candidates) state.select(v);
  k_remaining -= candidates.size();

  // Umax depends only on S′ and the neighborhood relation is symmetric, so
  // only the selected points' unassigned neighbors have a new Umax. Each is
  // recomputed from scratch in CSR order, in ascending id order: a running
  // subtraction would round differently than the fold.
  std::vector<NodeId> dirty;
  for (NodeId v : candidates) {
    const auto probe = std::lower_bound(probes.begin(), probes.end(), v);
    for (NodeId neighbor : touched[static_cast<std::size_t>(probe - probes.begin())]) {
      if (state.is_unassigned(neighbor)) dirty.push_back(neighbor);
    }
  }
  std::sort(dirty.begin(), dirty.end());
  dirty.erase(std::unique(dirty.begin(), dirty.end()), dirty.end());
  for_each_neighborhood(
      ground_set, dirty, config,
      [&](std::size_t, NodeId v, std::span<const graph::Edge> edges) {
        u_max[static_cast<std::size_t>(v)] =
            fold_bounds(ground_set, params, state, config, round_salt, v, edges).max;
      });
  grow.prune(state);  // drops this pass's selections and the Umax it lowered
  return candidates.size();
}

std::size_t shrink_step(const GroundSet& ground_set, ObjectiveParams params,
                        SelectionState& state, std::size_t k_remaining,
                        const BoundingConfig& config, std::uint64_t round_salt) {
  std::vector<double> u_min, u_max;
  detail::compute_utility_bounds(ground_set, params, state, config, round_salt, u_min,
                                 u_max);

  // Threshold = U^k_min, the k-th largest minimum utility (Alg. 4). With
  // k_remaining == 0 the threshold is +inf and every unassigned point is
  // discarded — the subset is already complete.
  const std::vector<double> min_values = unassigned_values(state, u_min);
  const double threshold = kth_largest(min_values, k_remaining);

  std::size_t discarded = 0;
  for (std::size_t i = 0; i < u_max.size(); ++i) {
    const auto v = static_cast<NodeId>(i);
    if (state.is_unassigned(v) && u_max[i] < threshold) {
      state.discard(v);
      ++discarded;
    }
  }
  assert(state.num_unassigned() >= k_remaining);
  return discarded;
}

BoundingResult bound(const ObjectiveKernel& kernel, std::size_t k,
                     const BoundingConfig& config) {
  const ObjectiveParams params = detail::bounding_params(kernel, "bound");
  const GroundSet& ground_set = kernel.ground_set();
  const std::size_t n = ground_set.num_points();
  BoundingResult result;
  result.state = SelectionState(n);
  result.k_remaining = std::min(k, n);
  if (result.k_remaining == 0) return result;

  // Umax and the Grow window, kept current by grow_step across passes.
  // S′ starts empty, so Umax = u.
  std::vector<double> utilities(n);
  for (std::size_t i = 0; i < n; ++i) {
    utilities[i] = ground_set.utility(static_cast<NodeId>(i));
  }
  GrowState grow(std::move(utilities));

  std::uint64_t salt = 0;
  std::size_t total_rounds = 0;
  bool first_pass = true;

  // When the surviving ground set is exactly as large as the open budget,
  // every remaining point must be selected (shrink only removes points that
  // are provably outside S*, so the survivors are the subset). The strict
  // inequality in Lemma 4.3 alone can never certify the k-th point (ties with
  // its own threshold), so without this rule bounding stalls one point short
  // on instances it has in fact solved, e.g. k == |V| or edge-free graphs.
  auto complete_if_tight = [&result]() {
    if (result.k_remaining == 0 ||
        result.state.num_unassigned() != result.k_remaining) {
      return false;
    }
    for (NodeId v : result.state.unassigned_ids()) result.state.select(v);
    result.k_remaining = 0;
    return true;
  };

  // Alternate shrink-to-convergence and grow-to-convergence (Alg. 5). The
  // fixed point is detected without redundant passes: when a whole grow loop
  // changes nothing, the state is identical to the one the preceding shrink
  // loop already certified; and when a later shrink loop changes nothing, the
  // preceding grow loop's final no-change pass still holds. This matches the
  // round counts reported in Table 2.
  // Deadline between passes: every grow/shrink decision is monotone and
  // individually sound, so stopping at any pass boundary leaves a valid
  // (merely less-tightened) state for the solver to finish from.
  auto out_of_time = [&result, &config]() {
    if (!config.deadline.expired()) return false;
    result.degraded = true;
    return true;
  };

  for (;;) {
    std::size_t shrink_changes = 0;
    for (;;) {
      if (out_of_time()) break;
      ++result.shrink_rounds;
      const std::size_t changed = shrink_step(ground_set, params, result.state,
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
          grow_step(ground_set, params, result.state, result.k_remaining, grow,
                    config, ++salt);
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

}  // namespace subsel::core
