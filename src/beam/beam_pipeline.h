// End-to-end subset selection on the dataflow substrate: the dataflow
// counterpart of core::select_subset. Bounding (Section 5's join plan) and
// the multi-round greedy (Section 4.4 as shuffles) run as pipeline stages
// under the same per-worker memory budget — the deployment story of the
// paper, where no solve stage ever holds the whole ground set on one
// machine.
#pragma once

#include "beam/beam_bounding.h"
#include "beam/beam_greedy.h"
#include "core/selection_pipeline.h"
#include "dataflow/pipeline.h"

namespace subsel::beam {

using core::SelectionPipelineConfig;
using core::SelectionPipelineResult;

/// Dataflow counterpart of core::select_subset: same kernel, config and
/// result shapes, every stage on `pipeline`. The bounding stage produces
/// decisions bit-identical to core::bound; the greedy stage differs only in
/// partition randomness (see beam_greedy.h). The objective is the round
/// loop's exact f(S), or — when bounding alone decides the subset — the
/// Section 5 distributed scoring joins; either way f(S) is computed once.
/// Throws std::invalid_argument for a kernel without caps().distributed_scoring.
SelectionPipelineResult beam_select_subset(dataflow::Pipeline& pipeline,
                                           const core::ObjectiveKernel& kernel,
                                           std::size_t k,
                                           const SelectionPipelineConfig& config);

}  // namespace subsel::beam
