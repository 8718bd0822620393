// Reusable per-worker storage for the distributed-greedy hot path.
//
// Every round of Algorithm 6 materializes one subproblem per partition and
// runs the centralized greedy on it. The seed implementation paid, per
// partition per round, a fresh CSR/heap allocation plus a binary search over
// the sorted member list for every edge. The arena removes both costs:
//
//  - `Subproblem` buffers (ids/priorities/offsets/edges) and the
//    AddressableMaxHeap live in the arena and are reused across all
//    partitions and rounds a worker processes — allocation converges to zero
//    after the first (largest) round;
//  - membership is an epoch-stamped global→local scatter map: one 64-bit
//    stamp per ground-set point packing (epoch, local id). Bumping the epoch
//    invalidates the whole map in O(1), so there is no per-partition
//    clearing, and per-edge membership tests are a single indexed load
//    instead of an O(log n) binary search.
//
// The scatter map is dense in the number of ground-set points, so it is only
// engaged below kDenseMembershipLimit; virtual ground sets with billions of
// points (data/perturbed.h) fall back to binary search over the member list.
//
// Arenas are not thread safe; SubproblemArenaPool hands one arena at a time
// to each pool worker and recycles them across rounds.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <limits>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "common/failpoint.h"
#include "core/addressable_heap.h"
#include "graph/similarity_graph.h"

namespace subsel::core {

/// A self-contained greedy instance over a subset of the ground set.
struct Subproblem {
  /// Ascending global ids; local id = index into this vector.
  std::vector<graph::NodeId> global_ids;
  /// Initial priorities: u(v), minus (β/α)·Σ s(v,j) over already-selected
  /// neighbors j when conditioned on a partial solution.
  std::vector<double> priorities;
  /// CSR adjacency restricted to members (local ids).
  std::vector<std::int64_t> offsets;
  struct LocalEdge {
    std::uint32_t neighbor;
    float weight;
  };
  std::vector<LocalEdge> edges;

  std::size_t size() const noexcept { return global_ids.size(); }
  std::size_t byte_size() const noexcept {
    return global_ids.size() * (sizeof(graph::NodeId) + sizeof(double)) +
           offsets.size() * sizeof(std::int64_t) + edges.size() * sizeof(LocalEdge);
  }
};

class SubproblemArena {
 public:
  static constexpr std::uint32_t kNotMember =
      std::numeric_limits<std::uint32_t>::max();
  /// Largest ground set (in points) for which the dense scatter map is used:
  /// 8 B/point of stamps, so 64 MB per arena at the limit. Beyond it (the
  /// virtual multi-billion-point ground sets) membership falls back to binary
  /// search over the sorted member list.
  static constexpr std::size_t kDenseMembershipLimit = std::size_t{1} << 23;

  /// The reusable subproblem storage this arena owns. Valid until the next
  /// materialize call on the same arena.
  Subproblem& subproblem() noexcept { return subproblem_; }
  const Subproblem& subproblem() const noexcept { return subproblem_; }

  /// Reusable heap for greedy_on_subproblem.
  AddressableMaxHeap& heap() noexcept { return heap_; }

  /// Scratch for GroundSet::neighbors_span copying fallbacks.
  std::vector<graph::Edge>& edge_scratch() noexcept { return edge_scratch_; }

  /// Reusable flat per-element buffer for ObjectiveKernel incremental state
  /// (best/second-best cover arrays, residual-mass arrays, weights, gains).
  /// Kernels index slots however they like; the deque keeps references to
  /// already-handed-out buffers stable when a later slot grows the set.
  /// Like the subproblem storage, the buffers are reused across every
  /// partition and round the arena serves — steady-state allocation is zero.
  std::vector<double>& kernel_state_buffer(std::size_t slot) {
    while (kernel_state_.size() <= slot) kernel_state_.emplace_back();
    return kernel_state_[slot];
  }

  /// Reusable index buffers for the structure-of-arrays kernel layouts
  /// (per-edge neighbor columns consumed by the vectorized gain loops).
  /// Same slot/stability/reuse contract as kernel_state_buffer.
  std::vector<std::uint32_t>& kernel_index_buffer(std::size_t slot) {
    while (kernel_index_.size() <= slot) kernel_index_.emplace_back();
    return kernel_index_[slot];
  }

  /// Bytes currently held by the kernel-state buffers (the report's
  /// peak_kernel_state_bytes input).
  std::size_t kernel_state_bytes() const noexcept {
    std::size_t total = 0;
    for (const auto& buffer : kernel_state_) total += buffer.size() * sizeof(double);
    for (const auto& buffer : kernel_index_) {
      total += buffer.size() * sizeof(std::uint32_t);
    }
    return total;
  }

  /// Scratch for the batched lazy solve loop (per-element freshness stamps,
  /// the stale-candidate batch, and its freshly evaluated gains).
  std::vector<std::uint32_t>& version_scratch() noexcept { return version_scratch_; }
  std::vector<std::uint32_t>& candidate_scratch() noexcept {
    return candidate_scratch_;
  }
  std::vector<double>& gain_scratch() noexcept { return gain_scratch_; }

  /// Starts a fresh membership epoch over global ids [0, num_points).
  /// Returns true when the dense scatter map is engaged (num_points within
  /// kDenseMembershipLimit); false tells the caller to use its fallback.
  /// O(1) amortized: no clearing, just an epoch bump — the stamp array is
  /// (re)allocated only on first use or growth, and zero-filled only when the
  /// 32-bit epoch counter wraps.
  bool begin_membership_epoch(std::size_t num_points) {
    if (num_points > kDenseMembershipLimit) return false;
    if (stamps_.size() < num_points) stamps_.resize(num_points, 0);
    if (++epoch_ == 0) {  // wrapped: stale stamps could alias the new epoch
      std::fill(stamps_.begin(), stamps_.end(), 0);
      epoch_ = 1;
    }
    return true;
  }

  /// Registers `global` as member `local` of the current epoch.
  void insert_member(graph::NodeId global, std::uint32_t local) noexcept {
    stamps_[static_cast<std::size_t>(global)] =
        (static_cast<std::uint64_t>(epoch_) << 32) | local;
  }

  /// Local id of `global` in the current epoch, or kNotMember. Ids past the
  /// map are never members: graph input is not yet checked at every entry
  /// point (ROADMAP, validation item), so a neighbor id >= n can reach here.
  std::uint32_t local_of(graph::NodeId global) const noexcept {
    const auto index = static_cast<std::size_t>(global);
    if (index >= stamps_.size()) return kNotMember;
    const std::uint64_t stamp = stamps_[index];
    return (stamp >> 32) == epoch_ ? static_cast<std::uint32_t>(stamp)
                                   : kNotMember;
  }

 private:
  Subproblem subproblem_;
  AddressableMaxHeap heap_;
  std::vector<graph::Edge> edge_scratch_;
  std::deque<std::vector<double>> kernel_state_;
  std::deque<std::vector<std::uint32_t>> kernel_index_;
  std::vector<std::uint32_t> version_scratch_;
  std::vector<std::uint32_t> candidate_scratch_;
  std::vector<double> gain_scratch_;
  std::vector<std::uint64_t> stamps_;  // (epoch << 32) | local id
  std::uint32_t epoch_ = 0;
};

/// Thread-safe checkout pool: one arena per concurrently-running partition
/// task, recycled across all rounds of a run. Grows to the worker count of
/// the executing pool and no further.
class SubproblemArenaPool {
 public:
  SubproblemArena* acquire() {
    // The per-partition allocation seam: "arena.alloc" stands in for an
    // allocation failure inside a worker task. The FailpointError propagates
    // through parallel_for's typed-rethrow contract to the driver.
    SUBSEL_FAILPOINT("arena.alloc");
    std::lock_guard lock(mutex_);
    if (!free_.empty()) {
      SubproblemArena* arena = free_.back();
      free_.pop_back();
      return arena;
    }
    arenas_.push_back(std::make_unique<SubproblemArena>());
    return arenas_.back().get();
  }

  void release(SubproblemArena* arena) {
    std::lock_guard lock(mutex_);
    free_.push_back(arena);
  }

  /// RAII checkout.
  class Lease {
   public:
    explicit Lease(SubproblemArenaPool& pool)
        : pool_(&pool), arena_(pool.acquire()) {}
    ~Lease() { pool_->release(arena_); }
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;

    SubproblemArena& operator*() const noexcept { return *arena_; }
    SubproblemArena* operator->() const noexcept { return arena_; }

   private:
    SubproblemArenaPool* pool_;
    SubproblemArena* arena_;
  };

 private:
  std::mutex mutex_;
  std::vector<std::unique_ptr<SubproblemArena>> arenas_;
  std::vector<SubproblemArena*> free_;
};

}  // namespace subsel::core
