#include "core/selection_pipeline.h"

#include <span>
#include <stdexcept>

#include "common/timer.h"

namespace subsel::core {

SelectionPipelineResult select_subset(const ObjectiveKernel& kernel, std::size_t k,
                                      const SelectionPipelineConfig& config) {
  if (config.use_bounding && config.greedy.constraints != nullptr &&
      !config.greedy.constraints->empty()) {
    // The bounding pre-pass commits points without consulting budgets or
    // caps, so a constrained pipeline must run greedy-only. The API layer
    // rejects this combination up-front with the same guidance.
    throw std::invalid_argument(
        "select_subset: the bounding pre-pass is unconstrained; disable"
        " bounding (--bounding=none) to run with selection constraints");
  }

  SelectionPipelineResult result;
  const SelectionState* initial = nullptr;
  if (config.use_bounding) {
    Timer timer;
    result.bounding = bound(kernel, k, config.bounding);
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
    // Bounding found the entire subset; no greedy needed.
    result.selected = initial->selected_ids();
    result.objective = kernel.evaluate(std::span<const NodeId>(result.selected),
                                       config.greedy.pool);
    return result;
  }

  Timer timer;
  DistributedGreedyResult greedy = distributed_greedy(kernel, k, config.greedy,
                                                      initial);
  result.greedy_seconds = timer.elapsed_seconds();
  result.selected = std::move(greedy.selected);
  result.objective = greedy.objective;
  result.greedy_rounds = std::move(greedy.rounds);
  result.preempted = greedy.preempted;
  if (greedy.degraded) {
    result.degraded = true;
    result.degraded_reason = greedy.degraded_reason;
  }
  return result;
}

}  // namespace subsel::core
