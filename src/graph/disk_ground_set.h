// Disk-backed ground set: the adjacency (the dominant memory term) stays in
// the on-disk CSR file and is served through a sharded, bounded block cache
// with an optional asynchronous prefetcher.
//
// The paper's feasibility math (Section 3): per point, the 10-NN adjacency
// costs ~16 B/edge — 880 GB for 5 B points — while per-point scalars (id,
// utility, tri-state) cost a few bytes. This class keeps exactly the cheap
// scalars resident (offsets + utilities, ~16 B/point) and pages edge blocks
// in on demand, so a materialized dataset far larger than DRAM can still be
// processed by bounding and the distributed greedy: their access pattern is
// streaming (bounding) or partition-local (greedy), both cache-friendly.
//
// Concurrency model (this is the layer every worker thread hammers):
//   - The block cache is split into `num_shards` independent shards; block
//     index -> shard is a simple modulo, so a streaming scan spreads
//     consecutive blocks across every shard. Each shard has its own mutex,
//     LRU list, and map — readers on different shards never contend.
//   - Block payloads are immutable `shared_ptr<const vector<Edge>>`s. A
//     shard lock is held only for the map lookup / LRU touch / refcount
//     bump; the edge copy into the caller's buffer and all disk I/O happen
//     OUTSIDE any lock. Eviction just drops the shard's reference, so a
//     reader holding the block keeps a stable view — torn reads are
//     impossible by construction.
//   - Each reader thread pins the blocks it recently served from, in a
//     small per-thread slot table keyed by the caller's scratch-buffer
//     address. The hot paths (subproblem materialization, bounding passes)
//     read neighborhoods in ascending node order, so consecutive reads
//     overwhelmingly land in a pinned block and are served with zero lock
//     acquisitions — and, through neighbors_span, zero copies: the span
//     points straight into the pinned immutable payload. Per the GroundSet
//     contract a span stays valid until the SAME scratch buffer is reused;
//     the per-scratch slots honor that across nested traversals. A slot
//     that may back a live span is never reclaimed: past 8 simultaneously-
//     live scratch buffers per thread, further spans are served through the
//     copying fallback instead. Pins of a destroyed instance are released
//     on each thread's next pin transition (a thread that stops reading
//     retains at most 8 block payloads until then).
//   - `prefetch()` pages the blocks behind a set of upcoming nodes, either
//     inline or as fire-and-forget tasks on a caller-supplied ThreadPool.
//     The solver round loops hand the head of each round's partition plan
//     to it before enqueueing the solves, so the hint tasks precede the
//     solve tasks in the pool queue and the block I/O runs batched, in
//     file order, deduplicated, and capped per shard at the shard's
//     capacity. In-flight prefetch tasks are drained by the destructor.
//
// File-format validation is strict and typed: a truncated file, a foreign
// magic, an unsupported version, or corrupt offsets throw DiskFormatError
// (with a machine-checkable kind()) at open; a file that shrinks underneath
// a live reader throws on the read path instead of returning garbage.
#pragma once

#include <atomic>
#include <cstdint>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "graph/ground_set.h"

namespace subsel::graph {

struct DiskGroundSetConfig {
  /// Edges per cache block. Blocks are the paging unit; a block spans
  /// contiguous edge indices, so one block typically covers many nodes.
  std::size_t block_edges = 4096;
  /// Maximum cached blocks across all shards (the resident-edge budget is
  /// max_cached_blocks * block_edges * sizeof(Edge)).
  std::size_t max_cached_blocks = 64;
  /// Cache shards (striped locks). Clamped to [1, max_cached_blocks]; the
  /// block budget is split evenly across shards. 1 degenerates to a single
  /// mutex-protected cache.
  std::size_t num_shards = 16;
};

/// Typed error for every way the on-disk CSR can be unusable. Derives from
/// std::runtime_error so pre-existing catch sites keep working; kind() lets
/// tests and tools distinguish the failure modes.
class DiskFormatError : public std::runtime_error {
 public:
  enum class Kind {
    kOpen,            // file missing or unreadable
    kBadMagic,        // not a SimilarityGraph::save file
    kBadVersion,      // recognized file, unsupported version
    kTruncated,       // payload extends past the end of the file
    kCorruptOffsets,  // offsets not monotone from 0, or mismatch edge count
    kShortRead,       // pread hit EOF under a live reader (file shrank)
    kIo,              // transient I/O errors persisted past the retry budget
  };

  DiskFormatError(Kind kind, const std::string& message)
      : std::runtime_error(message), kind_(kind) {}

  Kind kind() const noexcept { return kind_; }

 private:
  Kind kind_;
};

/// Monotonic cache counters, snapshot-consistent enough for reporting (the
/// counters are per-shard and summed without a global lock). A prefetched
/// block counts as issued when the hint reaches it (in the shard critical
/// section that finds it resident or pages it in) or when the hint abandons
/// it, so the difference of any two snapshots has prefetch_loaded <=
/// prefetch_issued, also while hint tasks are in flight.
struct DiskCacheStats {
  std::uint64_t hits = 0;             // demand reads served from cache
  std::uint64_t misses = 0;           // demand reads that paged a block in
  std::uint64_t prefetch_issued = 0;  // blocks requested by prefetch()
  std::uint64_t prefetch_loaded = 0;  // of those, blocks actually paged in
  /// Transient pread failures (EINTR/EAGAIN/injected) absorbed by the
  /// bounded-backoff retry loop instead of surfacing as errors.
  std::uint64_t read_retries = 0;
  /// Prefetch hint blocks abandoned after an I/O failure; the blocks degrade
  /// into ordinary demand misses later instead of failing the solve.
  std::uint64_t prefetch_degraded = 0;
  std::size_t resident_blocks = 0;            // blocks cached right now
  std::size_t resident_blocks_high_water = 0; // max blocks ever resident
};

/// GroundSet over a SimilarityGraph::save file + in-memory utilities.
class DiskGroundSet final : public GroundSet {
 public:
  /// Opens `graph_path` (a file written by SimilarityGraph::save) and
  /// validates its header and geometry (see DiskFormatError). `utilities`
  /// must have one entry per node.
  DiskGroundSet(const std::string& graph_path, std::vector<double> utilities,
                const DiskGroundSetConfig& config = {});
  ~DiskGroundSet() override;

  DiskGroundSet(const DiskGroundSet&) = delete;
  DiskGroundSet& operator=(const DiskGroundSet&) = delete;

  std::size_t num_points() const override { return utilities_.size(); }
  double utility(NodeId v) const override {
    return utilities_[static_cast<std::size_t>(v)];
  }
  void neighbors(NodeId v, std::vector<Edge>& out) const override;
  /// Zero-copy when v's neighborhood sits inside one cache block (the
  /// overwhelmingly common case: a block covers block_edges/avg_degree
  /// nodes): returns a span into the thread's pinned immutable block,
  /// invalidated by this thread's next neighbors/neighbors_span call on this
  /// ground set. Falls back to copying through `scratch` for ranges that
  /// straddle blocks.
  std::span<const Edge> neighbors_span(NodeId v,
                                       std::vector<Edge>& scratch) const override;
  std::size_t degree(NodeId v) const override {
    const auto i = static_cast<std::size_t>(v);
    return static_cast<std::size_t>(offsets_[i + 1] - offsets_[i]);
  }

  /// Pages the blocks behind `nodes`' neighborhoods into the cache. With a
  /// pool, the loads run as fire-and-forget tasks on it (the round loops
  /// pass the solver pool so the I/O overlaps the current solve); without
  /// one they run inline. Already-cached blocks are only touched in LRU
  /// order. Safe to call concurrently with readers and other prefetches.
  void prefetch(std::span<const NodeId> nodes, ThreadPool* pool) const override;

  /// Blocks until every in-flight prefetch task has finished (the
  /// destructor calls this; exposed for deterministic tests and benches).
  void drain_prefetch() const;

  std::size_t num_edges() const noexcept {
    return offsets_.empty() ? 0 : static_cast<std::size_t>(offsets_.back());
  }

  /// Resident bytes of the cache at capacity plus the per-point scalars —
  /// what this class actually keeps in DRAM.
  std::size_t resident_bytes() const noexcept;

  DiskCacheStats stats() const noexcept;

  std::size_t num_shards() const noexcept { return shards_.size(); }
  std::size_t max_cached_blocks() const noexcept {
    return config_.max_cached_blocks;
  }
  std::size_t block_edges() const noexcept { return config_.block_edges; }

 private:
  using BlockData = std::shared_ptr<const std::vector<Edge>>;

  struct Shard {
    mutable std::mutex mutex;
    /// Most-recent first; holds block indices.
    std::list<std::size_t> lru;
    struct Entry {
      BlockData edges;
      std::list<std::size_t>::iterator lru_position;
    };
    std::unordered_map<std::size_t, Entry> blocks;
    std::size_t capacity = 1;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t prefetch_issued = 0;  // hint blocks reached (not abandoned)
    std::uint64_t prefetch_loaded = 0;
  };

  Shard& shard_for(std::size_t block_index) const {
    return shards_[block_index % shards_.size()];
  }

  /// Reads block `index` from disk (no locks held). Throws DiskFormatError
  /// (kShortRead) if the file shrank underneath us.
  BlockData load_block(std::size_t index) const;

  /// Returns the cached payload of block `index`, paging it in on a miss.
  /// `demand` selects the counters: hit/miss, or prefetch_issued plus
  /// prefetch_loaded when this call paged the block in.
  BlockData block(std::size_t index, bool demand) const;

  /// Inserts `data` for `index` unless a racing loader won; evicts the
  /// shard's LRU tail beyond capacity. Returns the winning payload.
  BlockData insert_block(Shard& shard, std::size_t index, BlockData data) const;

  /// Pins `data` (block `index`) into the calling thread's slot for `key`
  /// (a caller scratch address, or nullptr for the copy-out path) and
  /// returns the slot. Flushes the thread's deferred hit count. Returns
  /// nullptr — never reclaiming a slot that may back a live span — when all
  /// slots are scratch-keyed; callers then serve by copy.
  const void* pin_block(const void* key, std::size_t index,
                        const BlockData& data) const;
  /// Finds a pinned block of this instance covering [first, last); sets
  /// `block_first` to its base edge index.
  const BlockData* find_pinned(std::size_t first, std::size_t last,
                               std::size_t& block_first) const;
  /// Counts one lock-free pinned-block hit (deferred, flushed in batches).
  void count_pinned_hit() const;

  DiskGroundSetConfig config_;
  int fd_ = -1;
  std::uint64_t edge_base_offset_ = 0;  // file offset of edges_[0]
  std::vector<std::int64_t> offsets_;   // resident: 8 B/point
  std::vector<double> utilities_;       // resident: 8 B/point

  /// Distinguishes instances for the thread-local pin (never reused, so a
  /// stale pin can never be mistaken for this instance's block).
  const std::uint64_t instance_id_;

  mutable std::vector<Shard> shards_;
  mutable std::atomic<std::size_t> resident_blocks_{0};
  mutable std::atomic<std::size_t> resident_high_water_{0};
  mutable std::atomic<std::uint64_t> read_retries_{0};
  mutable std::atomic<std::uint64_t> prefetch_degraded_{0};
  /// Hits served from threads' pinned blocks, flushed on pin transitions;
  /// stats() additionally sums the per-thread deferred tails through a
  /// registry, so snapshots are accurate (at worst transiently low during a
  /// concurrent flush — never high, never missing a miss).
  mutable std::atomic<std::uint64_t> pinned_hits_{0};

  /// In-flight fire-and-forget prefetch tasks; pruned opportunistically,
  /// drained on destruction.
  mutable std::mutex prefetch_mutex_;
  mutable std::vector<std::future<void>> prefetch_inflight_;
};

}  // namespace subsel::graph
