// Streaming and MapReduce-era baselines the paper positions against
// (Section 2, "Distributed algorithms" / Section 3, "Related optimizations"):
//
//  - threshold_greedy (Badanidiyuru & Vondrák 2014): descending geometric
//    threshold sweep; (1 − 1/e − ε) approximation with O(n/ε · log(n/ε))
//    gain evaluations, still centralized.
//  - sieve_streaming (Badanidiyuru et al. 2014): one pass over the stream,
//    O(k log(k)/ε) elements of memory, (1/2 − ε) guarantee. The classic
//    answer to "the data does not fit" — but the *subset* still must fit on
//    the machine running the sieve, which is the assumption this paper
//    drops.
//  - sample_and_prune (Kumar et al. 2015): MapReduce rounds of {sample a
//    machine-sized set, extend the solution by greedy, prune elements whose
//    marginal gain can no longer qualify}. Assumes O(k · n^δ) memory on the
//    coordinating machine.
//
// All three maximize the same kernels as core::. Their theory assumes
// monotone f; for α well below 1 the pairwise objective can be non-monotone,
// in which case callers should enable the Appendix-A monotonicity offset
// (threshold/sieve acceptance tests do).
#pragma once

#include <cstdint>
#include <vector>

#include "common/run_control.h"
#include "common/thread_pool.h"
#include "core/greedy.h"
#include "core/objective.h"
#include "core/objective_kernel.h"
#include "graph/ground_set.h"

namespace subsel::baselines {

using core::GreedyResult;
using core::NodeId;
using core::ObjectiveKernel;
using core::ObjectiveParams;
using graph::GroundSet;

// All three baselines work against any submodular ObjectiveKernel and read
// the ground set from kernel.ground_set(): they only need singleton values,
// marginal gains, and (for the sieve) the monotonicity gain offset.

/// Threshold greedy: for w = d, d(1−ε), d(1−ε)², …, εd/n (d = the maximum
/// singleton value), add every element whose marginal gain is ≥ w until k
/// elements are chosen. Throws std::invalid_argument unless epsilon is in
/// (0, 1).
/// `deadline` is checked between sweep thresholds and between tail fills: an
/// expired run returns the elements accepted so far with `degraded` set.
/// With `constraints`, infeasible candidates are skipped in the sweep and the
/// tail fill; the run may legally return fewer than k elements.
GreedyResult threshold_greedy(const ObjectiveKernel& kernel, std::size_t k,
                              double epsilon = 0.1, Deadline deadline = {},
                              const core::ConstraintSet* constraints = nullptr);

struct SieveStreamingConfig {
  /// Threshold grid ratio (1+ε); must be in (0, 1).
  double epsilon = 0.1;
  /// Add the Appendix-A δ offset to every utility so the monotone analysis
  /// applies. The reported objective is still the *unshifted* f(S).
  bool apply_monotonicity_offset = false;
  /// Stream order seed (the ground set is streamed in a random permutation;
  /// sieve quality is order-dependent).
  std::uint64_t seed = 41;
  /// Wall-clock budget, checked per streamed element. An expired run stops
  /// consuming the stream and returns the best sieve over the prefix seen so
  /// far, flagged `degraded` — still a valid (1/2−ε) answer for that prefix.
  Deadline deadline;
  /// Optional selection constraints (global ids, validated; non-owning).
  /// Each sieve carries its own ConstraintTracker, so every candidate
  /// selection stays independently feasible as the stream goes by.
  const core::ConstraintSet* constraints = nullptr;
  /// Pool for the final exact f(S) evaluation (nullptr = the global pool).
  ThreadPool* pool = nullptr;
};

struct SieveStreamingResult {
  std::vector<core::NodeId> selected;  // ascending, ≤ k ids
  double objective = 0.0;              // unshifted f(selected)
  /// Number of parallel sieves instantiated over the run.
  std::size_t num_sieves = 0;
  /// Peak elements resident across all sieves — the O(k log(k)/ε) memory
  /// footprint of the algorithm (the quantity that still scales with k).
  std::size_t peak_resident_elements = 0;
  /// True when the deadline stopped the pass before the stream was exhausted.
  bool degraded = false;
};

/// One pass of SieveStreaming over a random permutation of
/// kernel.ground_set().
SieveStreamingResult sieve_streaming(const ObjectiveKernel& kernel, std::size_t k,
                                     const SieveStreamingConfig& config);

struct SamplePruneConfig {
  /// Elements the coordinating machine can hold per round — the paper's
  /// O(k·n^δ) memory assumption, surfaced as an explicit cap.
  std::size_t machine_capacity = 0;  // 0 -> 4·k
  std::size_t max_rounds = 64;
  std::uint64_t seed = 43;
  /// Wall-clock budget, checked at round boundaries. An expired run returns
  /// the solution extended so far (every round's extension is a valid greedy
  /// prefix), flagged `degraded`, and skips the top-up fill.
  Deadline deadline;
  /// Optional selection constraints (global ids, validated; non-owning).
  /// Infeasible candidates never enter the greedy extension or the top-up;
  /// the run may legally return fewer than k elements.
  const core::ConstraintSet* constraints = nullptr;
  /// Pool for the final exact f(S) evaluation (nullptr = the global pool).
  ThreadPool* pool = nullptr;
};

struct SamplePruneResult {
  std::vector<core::NodeId> selected;  // ascending, min(k, n) ids in practice
                                       // (fewer only if pruning emptied V)
  double objective = 0.0;
  std::size_t rounds = 0;
  /// Elements surviving after each round's prune (monitors convergence).
  std::vector<std::size_t> survivors_per_round;
  /// Peak elements materialized on the coordinating machine.
  std::size_t peak_resident_elements = 0;
  /// Gain-engine footprint: materialized full-ground subproblem (0 for
  /// pairwise) + flat kernel state (0 on the oracle path).
  std::size_t materialized_bytes = 0;
  std::size_t kernel_state_bytes = 0;
  /// True when the deadline ended the round loop before the budget filled.
  bool degraded = false;
};

/// SAMPLE&PRUNE over kernel.ground_set(): per round, draw a uniform sample
/// of the surviving elements onto the coordinating machine, extend the
/// running solution with the centralized greedy, then prune every surviving
/// element whose marginal gain w.r.t. the extended solution falls below the
/// smallest gain the greedy accepted this round (by submodularity such
/// elements can never outrank the accepted ones later).
SamplePruneResult sample_and_prune(const ObjectiveKernel& kernel, std::size_t k,
                                   const SamplePruneConfig& config);

}  // namespace subsel::baselines
