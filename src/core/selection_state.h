// Tri-state assignment of every ground-set point during selection.
//
// Bounding (Section 4.1/4.2) moves points from Unassigned to Selected (grow)
// or Discarded (shrink); the distributed greedy then completes the subset
// from the remaining Unassigned points. The state vector is the only
// per-point bookkeeping that must be globally visible — 1 byte per point, the
// footprint that remains even for larger-than-memory ground sets (the paper
// streams it through the dataflow joins; we keep it resident since one byte
// per point fits for every scale we simulate).
#pragma once

#include <cstdint>
#include <vector>

#include "graph/similarity_graph.h"

namespace subsel::core {

using graph::NodeId;

enum class PointState : std::uint8_t {
  kUnassigned = 0,
  kSelected = 1,
  kDiscarded = 2,
};

class SelectionState {
 public:
  SelectionState() = default;
  explicit SelectionState(std::size_t num_points)
      : states_(num_points, PointState::kUnassigned),
        unassigned_(num_points) {}

  std::size_t size() const noexcept { return states_.size(); }

  PointState state(NodeId v) const noexcept {
    return states_[static_cast<std::size_t>(v)];
  }
  /// False for ids past the state, which were never selected: graph input is
  /// not yet checked at every entry point (ROADMAP, validation item), so a
  /// neighbor id >= n can reach here. state() and is_unassigned() keep
  /// requiring v < size().
  bool is_selected(NodeId v) const noexcept {
    return static_cast<std::size_t>(v) < states_.size() &&
           state(v) == PointState::kSelected;
  }
  bool is_discarded(NodeId v) const noexcept { return state(v) == PointState::kDiscarded; }
  bool is_unassigned(NodeId v) const noexcept {
    return state(v) == PointState::kUnassigned;
  }

  void select(NodeId v) noexcept { transition(v, PointState::kSelected); }
  void discard(NodeId v) noexcept { transition(v, PointState::kDiscarded); }

  std::size_t num_selected() const noexcept { return selected_; }
  std::size_t num_discarded() const noexcept { return discarded_; }
  std::size_t num_unassigned() const noexcept { return unassigned_; }

  /// All selected ids, ascending.
  std::vector<NodeId> selected_ids() const {
    return ids_in_state(PointState::kSelected);
  }
  /// All unassigned ids, ascending.
  std::vector<NodeId> unassigned_ids() const {
    return ids_in_state(PointState::kUnassigned);
  }

 private:
  void transition(NodeId v, PointState next) noexcept {
    PointState& slot = states_[static_cast<std::size_t>(v)];
    if (slot == next) return;
    switch (slot) {
      case PointState::kUnassigned: --unassigned_; break;
      case PointState::kSelected: --selected_; break;
      case PointState::kDiscarded: --discarded_; break;
    }
    slot = next;
    switch (next) {
      case PointState::kUnassigned: ++unassigned_; break;
      case PointState::kSelected: ++selected_; break;
      case PointState::kDiscarded: ++discarded_; break;
    }
  }

  std::vector<NodeId> ids_in_state(PointState wanted) const {
    std::vector<NodeId> ids;
    for (std::size_t i = 0; i < states_.size(); ++i) {
      if (states_[i] == wanted) ids.push_back(static_cast<NodeId>(i));
    }
    return ids;
  }

  std::vector<PointState> states_;
  std::size_t selected_ = 0;
  std::size_t discarded_ = 0;
  std::size_t unassigned_ = 0;
};

}  // namespace subsel::core
