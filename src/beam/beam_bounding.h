// Section 5: bounding implemented on the dataflow substrate.
//
// The difficulty the paper solves here: when iterating over a point's
// neighbors you cannot do an O(1) "is the neighbor selected?" check, because
// the subset is not in any worker's memory. Instead:
//
//  1. Fan out the neighbor graph: for every (node, neighbor-list) record and
//     every neighbor, emit a triple keyed by the *neighbor* id:
//     (neighbor -> (node, s)).
//  2. Three-way CoGroupByKey of {fanned graph, partial solution, unassigned
//     points}: for each key a, its presence in the solution / unassigned
//     collections classifies it (discarded keys drop their rows). Re-invert
//     the surviving edges, emitting 4-tuples keyed by the original node b:
//     (b -> (a, s(a,b), a_in_solution)).
//  3. Join the 4-tuples with the unassigned points on b; rows without a
//     partner are dropped (b is selected or discarded). The surviving row for
//     b carries exactly b's live neighborhood: solution neighbors always
//     subtract from both bounds; unassigned neighbors subtract from Umin
//     (subject to the approximate-bounding sampling decision).
//
// Thresholds (U^k_max, U^k_min) are computed with an exact distributed
// selection (kth_largest_distributed) — no worker ever holds the value
// vector. The only driver-resident state is the one-byte-per-point
// SelectionState.
//
// The sampling decisions share core::detail::sample_neighbor, so this
// implementation is bit-identical to the in-memory core::bound — which the
// integration tests assert.
#pragma once

#include "core/bounding.h"
#include "dataflow/pcollection.h"
#include "dataflow/pipeline.h"

namespace subsel::beam {

using core::BoundingConfig;
using core::BoundingResult;
using core::SelectionState;
using graph::GroundSet;
using graph::NodeId;

struct UtilityBounds {
  double u_min = 0.0;
  double u_max = 0.0;
};

/// Steps 1-3 above: per-unassigned-point (Umin|Uexp, Umax) as a distributed
/// collection, with pair_scale() = β/α taken from `params` (like the
/// core::bound pass helpers).
dataflow::PCollection<std::pair<NodeId, UtilityBounds>> compute_bounds_collection(
    dataflow::Pipeline& pipeline, const GroundSet& ground_set,
    core::ObjectiveParams params, const SelectionState& state,
    const BoundingConfig& config, std::uint64_t round_salt);

/// One distributed Grow pass (Alg. 3); returns #selected.
std::size_t beam_grow_step(dataflow::Pipeline& pipeline, const GroundSet& ground_set,
                           core::ObjectiveParams params, SelectionState& state,
                           std::size_t& k_remaining, const BoundingConfig& config,
                           std::uint64_t round_salt);

/// One distributed Shrink pass (Alg. 4); returns #discarded.
std::size_t beam_shrink_step(dataflow::Pipeline& pipeline, const GroundSet& ground_set,
                             core::ObjectiveParams params, SelectionState& state,
                             std::size_t k_remaining, const BoundingConfig& config,
                             std::uint64_t round_salt);

/// Full Algorithm 5 on the dataflow substrate over kernel.ground_set().
/// Mirrors core::bound exactly (same alternation, salts, and convergence
/// detection), and like it throws std::invalid_argument unless
/// kernel.pairwise_params() is set.
BoundingResult beam_bound(dataflow::Pipeline& pipeline,
                          const core::ObjectiveKernel& kernel, std::size_t k,
                          const BoundingConfig& config);

}  // namespace subsel::beam
