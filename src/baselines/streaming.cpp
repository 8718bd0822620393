#include "baselines/streaming.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <optional>
#include <span>

#include "baselines/gain_engine.h"
#include "common/rng.h"

namespace subsel::baselines {
namespace {

using core::PairwiseKernel;

/// The sieve's monotonicity machinery, in two arithmetics:
///  - pairwise kernels keep the pre-kernel shifted-utilities form — the
///    per-element shift is α·((u(v)+δ) − u(v)), evaluated with exactly the
///    legacy floating-point operation order so sieve selections stay
///    bit-identical to the historical implementation;
///  - every other kernel uses the kernel's gain_offset() directly (0 for
///    monotone kernels, so the offset is a no-op there).
struct GainShift {
  const ObjectiveKernel* kernel = nullptr;
  std::vector<double> shifted;  // pairwise only: u(v) + δ
  double generic_offset = 0.0;  // non-pairwise only

  GainShift(const ObjectiveKernel& k, bool apply_offset) : kernel(&k) {
    if (!apply_offset) return;
    if (const core::ObjectiveParams* params = k.pairwise_params()) {
      const auto& ground_set = k.ground_set();
      const double delta =
          core::PairwiseObjective(ground_set, *params).monotonicity_offset();
      shifted.resize(ground_set.num_points());
      for (std::size_t i = 0; i < shifted.size(); ++i) {
        shifted[i] = ground_set.utility(static_cast<core::NodeId>(i)) + delta;
      }
    } else {
      generic_offset = k.gain_offset();
    }
  }

  double singleton(core::NodeId v) const {
    if (const core::ObjectiveParams* params = kernel->pairwise_params()) {
      return params->alpha *
             (shifted.empty() ? kernel->ground_set().utility(v)
                              : shifted[static_cast<std::size_t>(v)]);
    }
    return kernel->singleton_value(v) + generic_offset;
  }

  double gain(const std::vector<std::uint8_t>& membership, core::NodeId v) const {
    double value = kernel->marginal_gain(membership, v);
    if (const core::ObjectiveParams* params = kernel->pairwise_params()) {
      if (!shifted.empty()) {
        value += params->alpha * (shifted[static_cast<std::size_t>(v)] -
                                  kernel->ground_set().utility(v));
      }
      return value;
    }
    return value + generic_offset;
  }
};

}  // namespace

GreedyResult threshold_greedy(const GroundSet& ground_set, ObjectiveParams params,
                              std::size_t k, double epsilon) {
  // singleton_value(v) = α·u(v) exactly — the delegation is bit-identical.
  return threshold_greedy(PairwiseKernel(ground_set, params), k, epsilon);
}

GreedyResult threshold_greedy(const ObjectiveKernel& kernel, std::size_t k,
                              double epsilon, Deadline deadline,
                              const core::ConstraintSet* constraints) {
  const std::size_t n = kernel.ground_set().num_points();
  k = std::min(k, n);
  GreedyResult result;
  result.selected.reserve(k);
  core::validate_epsilon(epsilon, "threshold_greedy");
  if (k == 0 || n == 0) return result;

  std::optional<core::ConstraintTracker> tracker;
  if (constraints != nullptr && !constraints->empty()) {
    tracker.emplace(*constraints);
  }

  // Every sweep re-evaluates every remaining candidate — precisely the
  // workload the engine turns into a load for pairwise and from O(deg^2)
  // into O(deg) per evaluation for the coverage-family kernels.
  MarginalGainEngine engine(kernel);

  // d = the maximum singleton value (α·max utility for pairwise — a
  // singleton has no pairwise term).
  double d = -std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < n; ++i) {
    d = std::max(d, kernel.singleton_value(static_cast<NodeId>(i)));
  }
  double total = 0.0;
  if (d <= 0.0) {
    // Degenerate: no positive singleton; fall back to smallest (feasible) ids.
    for (std::size_t i = 0; i < n && result.selected.size() < k; ++i) {
      const auto v = static_cast<NodeId>(i);
      if (tracker && !tracker->feasible(v)) continue;
      total += engine.gain(v);
      engine.select(v);
      if (tracker) tracker->accept(v);
      result.selected.push_back(v);
    }
    result.objective = total;
    return result;
  }

  // The unselected, still-feasible ids in ascending order: every scan below
  // visits them in full-scan order and drops the ones it selects or finds
  // infeasible (monotone infeasibility: they never come back), so a sweep
  // costs the live candidates, not n.
  std::vector<NodeId> candidates(n);
  for (std::size_t i = 0; i < n; ++i) candidates[i] = static_cast<NodeId>(i);

  const double floor_threshold = epsilon * d / static_cast<double>(n);
  for (double w = d; w >= floor_threshold && result.selected.size() < k;
       w *= (1.0 - epsilon)) {
    if (deadline.expired()) {
      result.degraded = true;
      break;
    }
    std::size_t kept = 0;
    // Reaching k ends the solve, so the unvisited tail need not be kept.
    for (std::size_t i = 0; i < candidates.size() && result.selected.size() < k;
         ++i) {
      const NodeId v = candidates[i];
      if (tracker && !tracker->feasible(v)) continue;
      const double g = engine.gain(v);
      if (g >= w) {
        engine.select(v);
        if (tracker) tracker->accept(v);
        result.selected.push_back(v);
        total += g;
        continue;
      }
      candidates[kept++] = v;
    }
    candidates.resize(kept);
  }

  // Elements whose residual gain sits below εd/n never pass the sweep; fill
  // the budget with the best of them (greedy tail) so the result has exactly
  // k elements like every other selector in this repo. A degraded run skips
  // the fill — its contract is "best effort within the deadline".
  while (result.selected.size() < k && !result.degraded) {
    if (deadline.expired()) {
      result.degraded = true;
      break;
    }
    double best_gain = -std::numeric_limits<double>::infinity();
    std::size_t kept = 0;
    std::size_t best = 0;
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      const NodeId v = candidates[i];
      if (tracker && !tracker->feasible(v)) continue;
      const double g = engine.gain(v);
      if (kept == 0 || g > best_gain) {
        best_gain = g;
        best = kept;
      }
      candidates[kept++] = v;
    }
    candidates.resize(kept);
    if (candidates.empty()) break;
    const NodeId chosen = candidates[best];
    candidates.erase(candidates.begin() + static_cast<std::ptrdiff_t>(best));
    engine.select(chosen);
    if (tracker) tracker->accept(chosen);
    result.selected.push_back(chosen);
    total += best_gain;
  }
  result.objective = total;
  result.materialized_bytes = engine.materialized_bytes();
  result.kernel_state_bytes = engine.kernel_state_bytes();
  return result;
}

SieveStreamingResult sieve_streaming(const GroundSet& ground_set, std::size_t k,
                                     const SieveStreamingConfig& config) {
  const std::size_t n = ground_set.num_points();
  k = std::min(k, n);
  SieveStreamingResult result;
  core::validate_epsilon(config.epsilon, "sieve_streaming");
  if (k == 0 || n == 0) return result;

  std::optional<PairwiseKernel> local_kernel;
  const ObjectiveKernel& kernel = core::resolve_kernel(
      config.kernel, ground_set, config.objective, local_kernel);
  const GainShift shift(kernel, config.apply_monotonicity_offset);

  const core::ConstraintSet* constraints =
      (config.constraints != nullptr && !config.constraints->empty())
          ? config.constraints
          : nullptr;

  // One sieve per threshold (1+ε)^i in [m, 2km], instantiated lazily as the
  // running singleton maximum m grows. Each sieve grows its own candidate
  // selection, so each carries its own constraint tracker (cheap to copy).
  struct Sieve {
    std::vector<std::uint8_t> membership;
    std::vector<core::NodeId> selected;
    double value = 0.0;  // (shifted) objective of `selected`
    std::optional<core::ConstraintTracker> tracker;
  };
  std::map<long, Sieve> sieves;  // key i <-> threshold (1+ε)^i
  const double log_base = std::log1p(config.epsilon);
  auto threshold_of = [&](long i) { return std::exp(static_cast<double>(i) * log_base); };

  // Stream in a random permutation.
  std::vector<core::NodeId> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = static_cast<core::NodeId>(i);
  Rng rng(config.seed);
  rng.shuffle(std::span<core::NodeId>(order));

  double m = 0.0;  // max singleton value seen so far
  std::size_t resident = 0;
  for (core::NodeId v : order) {
    if (config.deadline.expired()) {
      // Stop consuming the stream; the sieves are consistent for the prefix
      // processed so far, so the pick below is still valid.
      result.degraded = true;
      break;
    }
    const double singleton = shift.singleton(v);
    if (singleton > m) {
      m = singleton;
      // Maintain the active threshold window [m, 2km].
      const long lo = static_cast<long>(std::ceil(std::log(std::max(m, 1e-300)) /
                                                  log_base));
      const long hi = static_cast<long>(std::floor(
          std::log(std::max(2.0 * static_cast<double>(k) * m, 1e-300)) / log_base));
      for (auto it = sieves.begin(); it != sieves.end();) {
        if (it->first < lo) {
          resident -= it->second.selected.size();
          it = sieves.erase(it);
        } else {
          ++it;
        }
      }
      for (long i = lo; i <= hi; ++i) {
        if (sieves.find(i) == sieves.end()) {
          Sieve sieve;
          sieve.membership.assign(n, 0);
          if (constraints != nullptr) sieve.tracker.emplace(*constraints);
          sieves.emplace(i, std::move(sieve));
        }
      }
    }

    for (auto& [i, sieve] : sieves) {
      if (sieve.selected.size() >= k) continue;
      if (sieve.tracker && !sieve.tracker->feasible(v)) continue;
      const double target = threshold_of(i);
      const double g = shift.gain(sieve.membership, v);
      const double bar = (target / 2.0 - sieve.value) /
                         static_cast<double>(k - sieve.selected.size());
      if (g >= bar) {
        sieve.membership[static_cast<std::size_t>(v)] = 1;
        sieve.selected.push_back(v);
        sieve.value += g;
        if (sieve.tracker) sieve.tracker->accept(v);
        ++resident;
      }
    }
    result.peak_resident_elements = std::max(result.peak_resident_elements, resident);
  }

  result.num_sieves = sieves.size();
  const Sieve* best = nullptr;
  for (const auto& [i, sieve] : sieves) {
    if (best == nullptr || sieve.value > best->value) best = &sieve;
  }
  if (best != nullptr) {
    result.selected = best->selected;
    std::sort(result.selected.begin(), result.selected.end());
    result.objective =
        kernel.evaluate(std::span<const core::NodeId>(result.selected), config.pool);
  }
  return result;
}

SamplePruneResult sample_and_prune(const GroundSet& ground_set, std::size_t k,
                                   const SamplePruneConfig& config) {
  const std::size_t n = ground_set.num_points();
  k = std::min(k, n);
  SamplePruneResult result;
  if (k == 0 || n == 0) return result;

  std::optional<PairwiseKernel> local_kernel;
  const ObjectiveKernel& kernel = core::resolve_kernel(
      config.kernel, ground_set, config.objective, local_kernel);

  const std::size_t capacity =
      config.machine_capacity > 0 ? config.machine_capacity : 4 * k;
  Rng rng(config.seed);
  std::optional<core::ConstraintTracker> tracker;
  if (config.constraints != nullptr && !config.constraints->empty()) {
    tracker.emplace(*config.constraints);
  }

  // Every round evaluates each sampled candidate per greedy step and every
  // survivor once for the prune — the per-candidate-per-round re-evaluation
  // the engine's maintained gains (pairwise) and incremental state (every
  // other kernel) make cheap and batchable.
  MarginalGainEngine engine(kernel);
  std::vector<core::NodeId> survivors(n);
  for (std::size_t i = 0; i < n; ++i) survivors[i] = static_cast<core::NodeId>(i);
  std::vector<core::NodeId> candidates;
  std::vector<double> gains;
  std::vector<core::NodeId> solution;
  solution.reserve(k);

  while (solution.size() < k && !survivors.empty() &&
         result.rounds < config.max_rounds) {
    if (config.deadline.expired()) {
      result.degraded = true;
      break;
    }
    ++result.rounds;

    // Sample a machine-sized set onto the coordinator (partial Fisher-Yates).
    const std::size_t draw = std::min(capacity, survivors.size());
    for (std::size_t i = 0; i < draw; ++i) {
      const std::size_t j =
          i + static_cast<std::size_t>(rng.uniform_index(survivors.size() - i));
      std::swap(survivors[i], survivors[j]);
    }
    result.peak_resident_elements =
        std::max(result.peak_resident_elements, draw + solution.size());

    // Extend the solution by greedy over the sample (gains conditioned on
    // the current solution), one batched evaluation per step. Track the
    // smallest accepted gain.
    double smallest_gain = std::numeric_limits<double>::infinity();
    while (solution.size() < k) {
      candidates.clear();
      for (std::size_t i = 0; i < draw; ++i) {
        if (engine.is_selected(survivors[i])) continue;
        if (tracker && !tracker->feasible(survivors[i])) continue;
        candidates.push_back(survivors[i]);
      }
      if (candidates.empty()) break;
      gains.resize(candidates.size());
      engine.gains_batch(candidates, gains);
      std::size_t best_slot = 0;
      for (std::size_t i = 1; i < candidates.size(); ++i) {
        if (gains[i] > gains[best_slot] ||
            (gains[i] == gains[best_slot] &&
             candidates[i] < candidates[best_slot])) {
          best_slot = i;
        }
      }
      engine.select(candidates[best_slot]);
      if (tracker) tracker->accept(candidates[best_slot]);
      solution.push_back(candidates[best_slot]);
      smallest_gain = std::min(smallest_gain, gains[best_slot]);
    }

    // Prune: by submodularity, a survivor whose gain w.r.t. the extended
    // solution is already below the smallest accepted gain can never exceed
    // it later. Keep everything when no element was accepted this round.
    std::vector<core::NodeId> next;
    next.reserve(survivors.size());
    const bool prune_active =
        solution.size() < k &&
        smallest_gain != std::numeric_limits<double>::infinity();
    if (prune_active) {
      candidates.clear();
      for (core::NodeId v : survivors) {
        if (!engine.is_selected(v)) candidates.push_back(v);
      }
      gains.resize(candidates.size());
      engine.gains_batch(candidates, gains);
      for (std::size_t i = 0; i < candidates.size(); ++i) {
        if (gains[i] >= smallest_gain) next.push_back(candidates[i]);
      }
    } else {
      for (core::NodeId v : survivors) {
        if (!engine.is_selected(v)) next.push_back(v);
      }
    }
    survivors = std::move(next);
    result.survivors_per_round.push_back(survivors.size());
    if (solution.size() == k) break;
  }

  // Budget not filled from pruned ground set (rare: tiny capacity and
  // aggressive pruning) — top up with the best remaining survivors. Degraded
  // runs skip the top-up: the deadline already passed.
  while (solution.size() < k && !survivors.empty() && !result.degraded) {
    if (tracker) {
      // Monotone infeasibility: once the budgets reject a survivor it can
      // never re-qualify, so compact the pool before each fill step.
      std::erase_if(survivors,
                    [&](core::NodeId v) { return !tracker->feasible(v); });
      if (survivors.empty()) break;
    }
    gains.resize(survivors.size());
    engine.gains_batch(survivors, gains);
    std::size_t best_slot = 0;
    for (std::size_t i = 1; i < survivors.size(); ++i) {
      if (gains[i] > gains[best_slot]) best_slot = i;
    }
    const core::NodeId v = survivors[best_slot];
    engine.select(v);
    if (tracker) tracker->accept(v);
    solution.push_back(v);
    std::swap(survivors[best_slot], survivors.back());
    survivors.pop_back();
  }
  result.materialized_bytes = engine.materialized_bytes();
  result.kernel_state_bytes = engine.kernel_state_bytes();

  std::sort(solution.begin(), solution.end());
  result.selected = std::move(solution);
  result.objective =
      kernel.evaluate(std::span<const core::NodeId>(result.selected), config.pool);
  return result;
}

}  // namespace subsel::baselines
