// End-to-end subset selection as deployed in the paper (Section 4 intro):
// run (approximate) bounding first; if it does not complete the subset,
// finish with the multi-round distributed greedy over the surviving points.
#pragma once

#include <optional>
#include <string>

#include "core/bounding.h"
#include "core/distributed_greedy.h"

namespace subsel::core {

/// The stage configs of one run. The objective is not among them: it is the
/// kernel select_subset is given, so the stages cannot disagree about it.
struct SelectionPipelineConfig {
  /// Bounding pre-pass; disable to run pure distributed greedy. The pre-pass
  /// is pairwise math (Section 4.1 Umin/Umax), so bound() throws for a kernel
  /// without pairwise_params() unless this is off.
  bool use_bounding = true;
  BoundingConfig bounding;
  DistributedGreedyConfig greedy;
};

struct SelectionPipelineResult {
  std::vector<NodeId> selected;  // exactly k ids, ascending
  double objective = 0.0;
  /// Bounding statistics (empty optional when bounding was disabled).
  std::optional<BoundingResult> bounding;
  /// Greedy round statistics (empty when bounding completed the subset).
  std::vector<RoundStats> greedy_rounds;
  double bounding_seconds = 0.0;
  double greedy_seconds = 0.0;
  /// True when the greedy stage was preempted (stop_after_round or the
  /// cancellation token); `selected` is then empty.
  bool preempted = false;
  /// True when a deadline cut either stage short (bounding stopped before its
  /// fixed point, or greedy skipped rounds). Unlike `preempted`, `selected`
  /// still holds a valid size-k selection — just a less-optimized one.
  bool degraded = false;
  std::string degraded_reason;
};

/// Selects k points of kernel.ground_set() under `kernel`: bounding (when
/// enabled), then distributed greedy over what bounding left open.
SelectionPipelineResult select_subset(const ObjectiveKernel& kernel, std::size_t k,
                                      const SelectionPipelineConfig& config);

}  // namespace subsel::core
