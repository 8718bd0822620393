// Baselines the paper compares against or builds on.
//
//  - random_selection: the floor every normalized score is implicitly
//    measured against.
//  - GreeDi (Mirzasoleiman et al. 2016) and RandGreeDi (Barbosa et al. 2015):
//    partition -> per-partition greedy -> *centralized greedy over the union
//    of the partial results*. That final merge is exactly the step that
//    requires one machine to hold Θ(m·k) candidates (and is what the paper's
//    multi-round algorithm eliminates); the implementation reports the size
//    of that union so benches can quantify the DRAM the merge would need.
//  - lazy_greedy (Minoux 1978) and stochastic_greedy (Mirzasoleiman et al.
//    2015): the classic accelerated centralized variants the paper discusses
//    as orthogonal ("Related optimizations", Section 3).
#pragma once

#include <cstdint>
#include <vector>

#include "common/run_control.h"
#include "common/thread_pool.h"
#include "core/greedy.h"
#include "core/objective_kernel.h"
#include "graph/embedding_matrix.h"
#include "core/objective.h"
#include "graph/ground_set.h"

namespace subsel::baselines {

using core::GreedyResult;
using core::NodeId;
using core::ObjectiveKernel;
using core::ObjectiveParams;
using graph::GroundSet;

// Every baseline takes the objective as a kernel and reads the ground set
// from kernel.ground_set(); pairwise runs pass a core::PairwiseKernel.

/// Uniform random subset of size k (without replacement), with its exact
/// objective f(S) (evaluated on `pool`, nullptr = the global pool).
/// Constrained runs take the feasible prefix of a random permutation instead
/// (still uniform over the sampling order; may return fewer than k elements
/// when the budgets bind).
GreedyResult random_selection(const ObjectiveKernel& kernel, std::size_t k,
                              std::uint64_t seed,
                              const core::ConstraintSet* constraints = nullptr,
                              ThreadPool* pool = nullptr);

enum class PartitionScheme : std::uint8_t {
  kContiguous = 0,  // GreeDi: arbitrary (contiguous-range) assignment
  kRandom = 1,      // RandGreeDi: uniform random assignment
};

struct GreeDiConfig {
  std::size_t num_machines = 8;
  PartitionScheme scheme = PartitionScheme::kRandom;
  std::uint64_t seed = 29;
  ThreadPool* pool = nullptr;
  /// Optional selection constraints (global ids, validated; non-owning).
  /// Partition solves enforce them locally; the centralized merge enforces
  /// them globally, so the returned selection is always feasible (and may be
  /// smaller than k when the budgets bind).
  const core::ConstraintSet* constraints = nullptr;
};

struct GreeDiResult {
  std::vector<NodeId> selected;  // ascending, size k
  double objective = 0.0;
  /// |union of per-partition results| = m·k candidates the merge machine must
  /// hold in DRAM — the central-machine requirement the paper removes.
  std::size_t merge_candidates = 0;
  std::size_t merge_bytes = 0;  // materialized subproblem size of the merge
  /// Largest materialized per-partition subproblem (merge included) and the
  /// largest flat kernel state behind one — the report memory numbers.
  std::size_t peak_partition_bytes = 0;
  std::size_t peak_state_bytes = 0;
};

/// GreeDi / RandGreeDi over kernel.ground_set(): per-partition greedy
/// selecting k each, then centralized greedy over the union.
GreeDiResult greedi(const ObjectiveKernel& kernel, std::size_t k,
                    const GreeDiConfig& config);

/// Lazy greedy (Minoux): max-heap of stale marginal gains, re-evaluated only
/// when popped. Identical output to Algorithm 1 by submodularity — for any
/// submodular kernel, not just pairwise. Gains run through the
/// MarginalGainEngine: maintained gains for pairwise kernels (a re-evaluation
/// is a load; each accepted element reads its neighborhood once), flat
/// incremental state for the coverage-family kernels (O(deg) instead of the
/// O(deg^2) oracle).
/// `deadline` is checked once per accepted element: an expired run returns
/// the valid greedy prefix picked so far with `degraded` set (each prefix is
/// itself the exact lazy-greedy answer for its own size).
/// With `constraints`, an infeasible heap pop is dropped permanently
/// (monotone infeasibility) and the run may legally return fewer than k.
GreedyResult lazy_greedy(const ObjectiveKernel& kernel, std::size_t k,
                         Deadline deadline = {},
                         const core::ConstraintSet* constraints = nullptr);

/// Stochastic greedy (lazier-than-lazy): each step evaluates a random sample
/// of size (n/k)·ln(1/epsilon) and takes its best element. Throws
/// std::invalid_argument unless epsilon is in (0, 1).
/// `deadline` is checked once per step; an expired run returns the prefix
/// picked so far with `degraded` set.
GreedyResult stochastic_greedy(const ObjectiveKernel& kernel, std::size_t k,
                               double epsilon = 0.1, std::uint64_t seed = 31,
                               Deadline deadline = {},
                               const core::ConstraintSet* constraints = nullptr);

/// Greedy k-center (Gonzalez): repeatedly take the point farthest (in
/// embedding space) from the current centers — the clustering-side baseline
/// the paper situates itself against (Sec. 2: k-medoids, weighted k-center).
/// Pure diversity, no utility term; 2-approximation for the k-center radius.
/// Returns the selected ids plus the covering radius achieved.
struct KCenterResult {
  std::vector<NodeId> selected;  // ascending, size min(k, n)
  /// max over points of the distance to the nearest selected center.
  double radius = 0.0;
  /// f(selected) under `kernel`, for apples-to-apples score comparisons.
  double objective = 0.0;
};

/// `embeddings` row i embeds point i of kernel.ground_set().
KCenterResult greedy_k_center(const graph::EmbeddingMatrix& embeddings,
                              const ObjectiveKernel& kernel, std::size_t k,
                              NodeId first_center = 0);

}  // namespace subsel::baselines
