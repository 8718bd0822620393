// Addressable binary max-heap — the priority queue of Algorithm 2.
//
// Supports popmax and decrease_weight_by on arbitrary live elements, which is
// all the pairwise-submodular greedy needs: pop the best point, then lower
// the priorities of its still-queued neighbors by (β/α)·s. Elements are dense
// local ids [0, n); ties break toward the smaller id so that every greedy
// implementation in this repo (heap, lazy, naive reference) picks identical
// subsets and can be compared exactly in tests.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <limits>
#include <span>
#include <utility>
#include <vector>

namespace subsel::core {

class AddressableMaxHeap {
 public:
  using LocalId = std::uint32_t;
  static constexpr std::uint32_t kNotInHeap = std::numeric_limits<std::uint32_t>::max();

  /// An empty heap; fill it with assign().
  AddressableMaxHeap() = default;

  /// Builds the heap over ids [0, priorities.size()) in O(n).
  explicit AddressableMaxHeap(std::span<const double> priorities) {
    assign(priorities);
  }

  /// Rebuilds the heap over ids [0, priorities.size()) in O(n), reusing the
  /// existing storage — arena-held heaps call this once per subproblem instead
  /// of reallocating.
  void assign(std::span<const double> priorities) {
    priorities_.assign(priorities.begin(), priorities.end());
    const auto n = static_cast<std::uint32_t>(priorities_.size());
    heap_.resize(n);
    position_.resize(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      heap_[i] = i;
      position_[i] = i;
    }
    size_ = n;
    for (std::uint32_t i = n / 2; i-- > 0;) {
      sift_down(i);
    }
  }

  bool empty() const noexcept { return size_ == 0; }
  std::size_t size() const noexcept { return size_; }

  bool contains(LocalId id) const noexcept { return position_[id] != kNotInHeap; }

  /// Current priority of a (possibly popped) element.
  double priority(LocalId id) const noexcept { return priorities_[id]; }

  /// The max element without removing it.
  LocalId peek() const noexcept {
    assert(!empty());
    return heap_[0];
  }

  /// Removes and returns the element with the highest priority (smallest id on
  /// ties).
  LocalId pop_max() noexcept {
    assert(!empty());
    const LocalId top = heap_[0];
    swap_slots(0, static_cast<std::uint32_t>(size_ - 1));
    position_[top] = kNotInHeap;
    --size_;
    if (size_ > 0) sift_down(0);
    return top;
  }

  /// priorities[id] -= delta for a live element (delta >= 0), restoring heap
  /// order. Mirrors Algorithm 2's decrease_weight_by.
  void decrease_weight_by(LocalId id, double delta) noexcept {
    assert(contains(id));
    priorities_[id] -= delta;
    sift_down(position_[id]);
  }

  /// Fused CSR-edge decrease: for every edge in [edges, edges + count),
  /// priorities[edge.neighbor] -= scale · edge.weight when the neighbor is
  /// still queued, restoring heap order per edge. Exactly the operations, in
  /// exactly the order, of the seed greedy's per-edge decrease_weight_by loop
  /// — selections and objectives stay bit-identical to it — but reading the
  /// CSR slice directly, with no staging vector and no sort (a staged,
  /// sorted Floyd-style restore cost more than the per-edge sift-downs it
  /// saved on the low-degree subproblems the paper's graphs produce).
  template <typename Edge>
  void decrease_edges(const Edge* edges, std::size_t count,
                      double scale) noexcept {
    for (std::size_t e = 0; e < count; ++e) {
      const auto id = static_cast<LocalId>(edges[e].neighbor);
      if (!contains(id)) continue;
      priorities_[id] -= scale * static_cast<double>(edges[e].weight);
      sift_down(position_[id]);
    }
  }

  /// Re-inserts a previously popped element with a new priority. The batched
  /// lazy greedy pops a run of stale tops, re-evaluates them in one
  /// gains_batch call, and pushes them back; pop/peek order stays the
  /// (priority, id) total order regardless of insertion order, so batching
  /// cannot change which element is accepted.
  void push(LocalId id, double priority) noexcept {
    assert(!contains(id));
    priorities_[id] = priority;
    heap_[size_] = id;
    position_[id] = static_cast<std::uint32_t>(size_);
    ++size_;
    sift_up(static_cast<std::uint32_t>(size_ - 1));
  }

  /// Generic priority update (increase or decrease) for a live element.
  void update(LocalId id, double new_priority) noexcept {
    assert(contains(id));
    const double old = priorities_[id];
    priorities_[id] = new_priority;
    if (new_priority > old) {
      sift_up(position_[id]);
    } else {
      sift_down(position_[id]);
    }
  }

 private:
  /// True if element a must sit above element b.
  bool outranks(LocalId a, LocalId b) const noexcept {
    if (priorities_[a] != priorities_[b]) return priorities_[a] > priorities_[b];
    return a < b;
  }

  void swap_slots(std::uint32_t i, std::uint32_t j) noexcept {
    std::swap(heap_[i], heap_[j]);
    position_[heap_[i]] = i;
    position_[heap_[j]] = j;
  }

  void sift_up(std::uint32_t slot) noexcept {
    while (slot > 0) {
      const std::uint32_t parent = (slot - 1) / 2;
      if (!outranks(heap_[slot], heap_[parent])) return;
      swap_slots(slot, parent);
      slot = parent;
    }
  }

  void sift_down(std::uint32_t slot) noexcept {
    for (;;) {
      const std::uint32_t left = 2 * slot + 1;
      if (left >= size_) return;
      std::uint32_t best = left;
      const std::uint32_t right = left + 1;
      if (right < size_ && outranks(heap_[right], heap_[left])) best = right;
      if (!outranks(heap_[best], heap_[slot])) return;
      swap_slots(slot, best);
      slot = best;
    }
  }

  std::vector<double> priorities_;
  std::vector<LocalId> heap_;       // heap_[slot] = id
  std::vector<std::uint32_t> position_;  // position_[id] = slot or kNotInHeap
  std::size_t size_ = 0;
};

}  // namespace subsel::core
