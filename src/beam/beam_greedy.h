// Section 4.4 on the dataflow substrate: the multi-round partition-based
// greedy as a Beam-style pipeline.
//
// Each round is
//     survivors : PCollection<NodeId>
//       -> map    (id -> (partition(id), id))          seeded hash partition
//       -> group_by_key                                 the shuffle
//       -> flat_map (partition -> per-partition greedy) Algorithm 2 locally
//     = next round's survivors,
// and the final subsample-to-k runs as a distributed threshold selection on
// hashed priorities (kth_largest_distributed), so the driver never holds
// more than the final id list it returns. Every per-partition subproblem
// charges its materialized size against the pipeline's per-worker memory
// budget — the "no machine holds more than its partition" claim is enforced,
// not assumed.
//
// Differences to core::distributed_greedy (and why they are sound): the
// in-memory version shuffles ids and splits into exactly-balanced ranges;
// a dataflow shuffle assigns by key hash, so partition sizes are only
// approximately balanced. Quality is statistically identical (tests compare
// the two within a few percent); sizes and determinism-given-seed are exact.
#pragma once

#include "core/distributed_greedy.h"
#include "dataflow/pipeline.h"
#include "graph/ground_set.h"

namespace subsel::beam {

using BeamGreedyConfig = core::DistributedGreedyConfig;

/// Runs Algorithm 6 as a dataflow pipeline over kernel.ground_set() under
/// `kernel`; selects exactly min(k, |open|) points. If `initial` is given
/// (state left by bounding), its selected points are kept and condition
/// per-partition utilities, its discarded points are never reconsidered.
core::DistributedGreedyResult beam_distributed_greedy(
    dataflow::Pipeline& pipeline, const core::ObjectiveKernel& kernel, std::size_t k,
    const BeamGreedyConfig& config, const core::SelectionState* initial = nullptr);

}  // namespace subsel::beam
