#include "beam/beam_pipeline.h"

#include <stdexcept>
#include <string>

#include "beam/beam_scoring.h"
#include "common/timer.h"
#include "core/objective_kernel.h"

namespace subsel::beam {

SelectionPipelineResult beam_select_subset(dataflow::Pipeline& pipeline,
                                           const core::ObjectiveKernel& kernel,
                                           std::size_t k,
                                           const SelectionPipelineConfig& config) {
  // A bounding-only run is scored with the Section 5 joins, which exist only
  // for the edge-decomposable pairwise form. Rejecting other kernels here
  // keeps the core layer in exact agreement with the API's
  // needs_distributed_scoring rule (same combinations, same verdict); the
  // kernel-generic round loops remain reachable through
  // beam_distributed_greedy directly.
  if (!kernel.caps().distributed_scoring) {
    throw std::invalid_argument(
        "beam_select_subset: distributed scoring needs an edge-decomposable"
        " objective (kernel \"" +
        std::string(kernel.name()) +
        "\" has none); use core::select_subset or beam_distributed_greedy"
        " for this kernel");
  }

  SelectionPipelineResult result;
  const core::SelectionState* initial = nullptr;
  if (config.use_bounding) {
    Timer timer;
    result.bounding = beam_bound(pipeline, kernel, k, config.bounding);
    result.bounding_seconds = timer.elapsed_seconds();
    initial = &result.bounding->state;
    if (result.bounding->degraded) {
      result.degraded = true;
      result.degraded_reason =
          "deadline expired during the bounding pre-pass; greedy ran on the"
          " partially tightened state";
    }
  }

  if (initial != nullptr && result.bounding->complete()) {
    // beam_bound ran, so the kernel has pairwise params.
    result.selected = initial->selected_ids();
    result.objective = beam_score(pipeline, kernel.ground_set(), result.selected,
                                  *kernel.pairwise_params());
    return result;
  }

  Timer timer;
  core::DistributedGreedyResult greedy =
      beam_distributed_greedy(pipeline, kernel, k, config.greedy, initial);
  result.greedy_seconds = timer.elapsed_seconds();
  result.selected = std::move(greedy.selected);
  // The round loop already evaluated f(S) exactly; score it only once.
  result.objective = greedy.objective;
  result.greedy_rounds = std::move(greedy.rounds);
  result.preempted = greedy.preempted;
  if (greedy.degraded) {
    result.degraded = true;
    result.degraded_reason = greedy.degraded_reason;
  }
  return result;
}

}  // namespace subsel::beam
