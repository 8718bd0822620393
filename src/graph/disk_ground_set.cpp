#include "graph/disk_ground_set.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <thread>

#include "common/failpoint.h"
#include "common/rng.h"
#include "common/thread_pool.h"

namespace subsel::graph {
namespace {

// Mirrors SimilarityGraph::save (similarity_graph.cpp).
constexpr std::uint64_t kGraphMagic = 0x5355424752415048ULL;  // "SUBGRAPH"
constexpr std::uint32_t kGraphVersion = 1;

/// Blocks a prefetch task may load per pool submission: small enough to
/// interleave with solve tasks on the shared pool, large enough to amortize
/// dispatch.
constexpr std::size_t kPrefetchBlocksPerTask = 16;

/// Transient-read retry budget: errno-class failures (EAGAIN & friends, or
/// the "disk.pread" failpoint standing in for them) back off and retry this
/// many times before being promoted to the permanent DiskFormatError::kIo.
constexpr int kMaxReadAttempts = 6;
constexpr std::uint64_t kBackoffBaseMicros = 50;

/// pread() the exact range, classifying failures:
///   - EINTR: a signal, not an error — retried immediately, never counted
///     against the attempt budget.
///   - EOF (got == 0): the file shrank under a live reader — permanent,
///     throws `kind` (the caller's corruption classification).
///   - any other errno (and the "disk.pread" failpoint): transient — counted
///     into `retries`, retried under exponential backoff with deterministic
///     jitter (a pure function of offset and attempt, so fault schedules
///     replay bit-identically), and promoted to kIo once the budget is
///     exhausted.
void pread_exact(int fd, void* buffer, std::size_t size, std::uint64_t offset,
                 const char* what, DiskFormatError::Kind kind,
                 std::atomic<std::uint64_t>* retries) {
  auto* cursor = static_cast<char*>(buffer);
  std::size_t remaining = size;
  int failures = 0;
  const auto transient_failure = [&] {
    if (retries != nullptr) retries->fetch_add(1, std::memory_order_relaxed);
    ++failures;
    if (failures >= kMaxReadAttempts) {
      throw DiskFormatError(
          DiskFormatError::Kind::kIo,
          std::string("DiskGroundSet: transient I/O errors reading ") + what +
              " persisted past " + std::to_string(kMaxReadAttempts) +
              " attempts");
    }
    const std::uint64_t ceiling = kBackoffBaseMicros
                                  << static_cast<unsigned>(failures);
    const std::uint64_t jitter =
        hash_combine(offset, static_cast<std::uint64_t>(failures)) % ceiling;
    std::this_thread::sleep_for(std::chrono::microseconds(ceiling + jitter));
  };
  while (remaining > 0) {
    if (SUBSEL_FAILPOINT_TRIGGERED("disk.pread")) {
      transient_failure();  // simulated EAGAIN: exercises the real retry path
      continue;
    }
    const ssize_t got = ::pread(fd, cursor, remaining,
                                static_cast<off_t>(offset + (size - remaining)));
    if (got < 0) {
      if (errno == EINTR) {
        if (retries != nullptr) retries->fetch_add(1, std::memory_order_relaxed);
        continue;  // signal, not corruption: retry without burning an attempt
      }
      transient_failure();
      continue;
    }
    if (got == 0) {
      throw DiskFormatError(kind,
                            std::string("DiskGroundSet: short read of ") + what);
    }
    cursor += got;
    remaining -= static_cast<std::size_t>(got);
  }
}

/// Per-thread pinned blocks: the immutable payloads this thread recently
/// served spans from, kept alive (and lock-free servable) independently of
/// cache eviction. Slots are keyed by the CALLER'S scratch-buffer address:
/// GroundSet's contract invalidates a span only when the same scratch is
/// reused, and nested traversals (an outer span live while inner spans are
/// served with a different scratch) rely on that — one slot per scratch
/// gives each nesting level its own stable block. `owner` is the owning
/// DiskGroundSet's never-reused instance id, so a pin can outlive its
/// ground set (the shared_ptr keeps the payload alive) without ever being
/// confused for another instance's block.
struct PinSlot {
  const void* key = nullptr;  // caller scratch address (nullptr: copy path)
  std::uint64_t owner = 0;    // 0 = empty slot
  std::size_t first_edge = 0;
  std::size_t end_edge = 0;
  std::shared_ptr<const std::vector<Edge>> data;
};

/// Simultaneously-live spans (distinct scratch buffers) per thread that can
/// be served zero-copy; beyond that, spans fall back to the contract-safe
/// copy-into-scratch path — a pinned slot is NEVER reclaimed while a span
/// could still depend on it. Traversals in this codebase nest at most two
/// levels deep.
constexpr std::size_t kPinSlots = 8;

struct ThreadPins {
  PinSlot slots[kPinSlots];
  /// Most-recently-served slot — the streaming hot path hits the same slot
  /// for ~block_edges/avg_degree consecutive reads, so check it first.
  std::size_t mru = 0;
  /// Instance-death generation this thread last swept its slots against.
  std::uint64_t seen_generation = 0;
  /// Deferred hit count for `hits_owner`, accumulated lock-free on this
  /// thread's own cache line and read by stats() through the registry below
  /// (so snapshots stay accurate even for threads that never pin again);
  /// flushed into the instance's pinned_hits_ on pin transitions.
  std::atomic<std::uint64_t> hits_owner{0};
  std::atomic<std::uint64_t> pending_hits{0};

  ThreadPins();
  ~ThreadPins();
};
thread_local ThreadPins t_pins;

/// Registry of every live thread's ThreadPins, so DiskGroundSet::stats()
/// can include deferred hit counts. Guards registration/deregistration and
/// the iteration; the counters themselves are relaxed atomics. Immortal
/// (intentionally leaked): thread_local ThreadPins destructors — including
/// the main thread's at process exit — must never race the registry's own
/// static teardown.
std::mutex& pins_registry_mutex() {
  static auto* mutex = new std::mutex;
  return *mutex;
}
std::vector<ThreadPins*>& pins_registry() {
  static auto* registry = new std::vector<ThreadPins*>();
  return *registry;
}

ThreadPins::ThreadPins() {
  std::lock_guard lock(pins_registry_mutex());
  pins_registry().push_back(this);
}

ThreadPins::~ThreadPins() {
  std::lock_guard lock(pins_registry_mutex());
  std::erase(pins_registry(), this);
}

std::uint64_t next_instance_id() {
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

/// Registry of live DiskGroundSet instance ids, so threads can release pins
/// of destroyed instances (their payloads would otherwise sit in pool
/// threads' slots indefinitely). Touched at construction/destruction and on
/// the rare sweep after a destruction — never on the read fast path.
std::mutex& live_instances_mutex() {
  static auto* mutex = new std::mutex;  // immortal, like pins_registry_mutex
  return *mutex;
}
std::unordered_map<std::uint64_t, bool>& live_instances() {
  static auto* set = new std::unordered_map<std::uint64_t, bool>();
  return *set;
}
std::atomic<std::uint64_t>& death_generation() {
  static std::atomic<std::uint64_t> generation{0};
  return generation;
}

/// Drops the calling thread's pins of destroyed instances. Cheap no-op
/// (one relaxed load + compare) unless a destruction happened since this
/// thread last swept.
void sweep_dead_pins() {
  const std::uint64_t generation =
      death_generation().load(std::memory_order_acquire);
  if (t_pins.seen_generation == generation) return;
  std::lock_guard lock(live_instances_mutex());
  for (PinSlot& slot : t_pins.slots) {
    if (slot.owner != 0 && live_instances().count(slot.owner) == 0) {
      slot = PinSlot{};
    }
  }
  t_pins.seen_generation = death_generation().load(std::memory_order_acquire);
}

}  // namespace

DiskGroundSet::DiskGroundSet(const std::string& graph_path,
                             std::vector<double> utilities,
                             const DiskGroundSetConfig& config)
    : config_(config),
      utilities_(std::move(utilities)),
      instance_id_(next_instance_id()) {
  if (config_.block_edges == 0 || config_.max_cached_blocks == 0 ||
      config_.num_shards == 0) {
    throw std::invalid_argument(
        "DiskGroundSet: block_edges, max_cached_blocks, and num_shards must"
        " be >= 1");
  }
  // The "disk.open" failpoint simulates the file being unreachable (mount
  // flap, permission race) through the same typed error a real failure takes.
  if (SUBSEL_FAILPOINT_TRIGGERED("disk.open")) {
    throw DiskFormatError(DiskFormatError::Kind::kOpen,
                          "DiskGroundSet: cannot open " + graph_path +
                              " (injected fault at 'disk.open')");
  }
  fd_ = ::open(graph_path.c_str(), O_RDONLY);
  if (fd_ < 0) {
    throw DiskFormatError(DiskFormatError::Kind::kOpen,
                          "DiskGroundSet: cannot open " + graph_path);
  }
  // From here on every failure must close fd_ before throwing.
  try {
    struct ::stat file_info {};
    if (::fstat(fd_, &file_info) != 0 || file_info.st_size < 0) {
      throw DiskFormatError(DiskFormatError::Kind::kOpen,
                            "DiskGroundSet: cannot stat " + graph_path);
    }
    const auto file_size = static_cast<std::uint64_t>(file_info.st_size);

    // Header: magic(8) version(4) | offsets: len(8) data | edges: len(8) data.
    std::uint64_t magic = 0;
    std::uint32_t version = 0;
    std::uint64_t cursor = 0;
    if (file_size < sizeof(magic) + sizeof(version)) {
      throw DiskFormatError(DiskFormatError::Kind::kTruncated,
                            "DiskGroundSet: " + graph_path +
                                " is shorter than a SimilarityGraph header");
    }
    pread_exact(fd_, &magic, sizeof(magic), cursor, "magic",
                DiskFormatError::Kind::kTruncated, &read_retries_);
    cursor += sizeof(magic);
    pread_exact(fd_, &version, sizeof(version), cursor, "version",
                DiskFormatError::Kind::kTruncated, &read_retries_);
    cursor += sizeof(version);
    if (magic != kGraphMagic) {
      throw DiskFormatError(DiskFormatError::Kind::kBadMagic,
                            "DiskGroundSet: " + graph_path +
                                " is not a SimilarityGraph file (bad magic)");
    }
    if (version != kGraphVersion) {
      throw DiskFormatError(DiskFormatError::Kind::kBadVersion,
                            "DiskGroundSet: " + graph_path +
                                " has unsupported SimilarityGraph version " +
                                std::to_string(version));
    }

    std::uint64_t offsets_len = 0;
    if (file_size < cursor + sizeof(offsets_len)) {
      throw DiskFormatError(DiskFormatError::Kind::kTruncated,
                            "DiskGroundSet: " + graph_path +
                                " is truncated before the offsets length");
    }
    pread_exact(fd_, &offsets_len, sizeof(offsets_len), cursor, "offsets length",
                DiskFormatError::Kind::kTruncated, &read_retries_);
    cursor += sizeof(offsets_len);
    if (file_size - cursor < offsets_len * sizeof(std::int64_t) ||
        offsets_len > file_size) {  // second clause guards the multiply
      throw DiskFormatError(DiskFormatError::Kind::kTruncated,
                            "DiskGroundSet: " + graph_path +
                                " is truncated inside the offsets array");
    }
    offsets_.resize(offsets_len);
    if (offsets_len > 0) {
      pread_exact(fd_, offsets_.data(), offsets_len * sizeof(std::int64_t),
                  cursor, "offsets", DiskFormatError::Kind::kTruncated,
                  &read_retries_);
    }
    cursor += offsets_len * sizeof(std::int64_t);

    std::uint64_t edges_len = 0;
    if (file_size - cursor < sizeof(edges_len)) {
      throw DiskFormatError(DiskFormatError::Kind::kTruncated,
                            "DiskGroundSet: " + graph_path +
                                " is truncated before the edges length");
    }
    pread_exact(fd_, &edges_len, sizeof(edges_len), cursor, "edges length",
                DiskFormatError::Kind::kTruncated, &read_retries_);
    cursor += sizeof(edges_len);
    edge_base_offset_ = cursor;
    if (file_size - cursor < edges_len * sizeof(Edge) ||
        edges_len > file_size) {
      throw DiskFormatError(DiskFormatError::Kind::kTruncated,
                            "DiskGroundSet: " + graph_path +
                                " is truncated inside the edge payload");
    }

    // The offsets must walk monotonically from 0 to the edge count; anything
    // else would index edge blocks out of range.
    if (!offsets_.empty()) {
      if (offsets_.front() != 0) {
        throw DiskFormatError(DiskFormatError::Kind::kCorruptOffsets,
                              "DiskGroundSet: first offset is not 0 in " +
                                  graph_path);
      }
      for (std::size_t i = 1; i < offsets_.size(); ++i) {
        if (offsets_[i] < offsets_[i - 1]) {
          throw DiskFormatError(DiskFormatError::Kind::kCorruptOffsets,
                                "DiskGroundSet: offsets are not monotone in " +
                                    graph_path);
        }
      }
      if (static_cast<std::uint64_t>(offsets_.back()) != edges_len) {
        throw DiskFormatError(DiskFormatError::Kind::kCorruptOffsets,
                              "DiskGroundSet: offsets/edges mismatch in " +
                                  graph_path);
      }
    } else if (edges_len != 0) {
      throw DiskFormatError(DiskFormatError::Kind::kCorruptOffsets,
                            "DiskGroundSet: edges without offsets in " +
                                graph_path);
    }

    const std::size_t nodes = offsets_.empty() ? 0 : offsets_.size() - 1;
    if (utilities_.size() != nodes) {
      throw std::invalid_argument(
          "DiskGroundSet: utilities size (" + std::to_string(utilities_.size()) +
          ") != node count (" + std::to_string(nodes) + ")");
    }
  } catch (...) {
    ::close(fd_);
    fd_ = -1;
    throw;
  }

  // Split the block budget across the shards (never more shards than
  // blocks, so the budget stays exact: sum of per-shard capacities ==
  // max_cached_blocks).
  const std::size_t shard_count =
      std::min(config_.num_shards, config_.max_cached_blocks);
  shards_ = std::vector<Shard>(shard_count);
  const std::size_t base = config_.max_cached_blocks / shard_count;
  const std::size_t extra = config_.max_cached_blocks % shard_count;
  for (std::size_t s = 0; s < shard_count; ++s) {
    shards_[s].capacity = base + (s < extra ? 1 : 0);
  }

  {
    std::lock_guard lock(live_instances_mutex());
    live_instances().emplace(instance_id_, true);
  }
}

DiskGroundSet::~DiskGroundSet() {
  drain_prefetch();
  if (fd_ >= 0) ::close(fd_);
  {
    std::lock_guard lock(live_instances_mutex());
    live_instances().erase(instance_id_);
  }
  // Tell every thread its pins of this instance are reclaimable; each
  // releases them on its next pin transition (sweep_dead_pins).
  death_generation().fetch_add(1, std::memory_order_release);
}

void DiskGroundSet::drain_prefetch() const {
  std::vector<std::future<void>> inflight;
  {
    std::lock_guard lock(prefetch_mutex_);
    inflight.swap(prefetch_inflight_);
  }
  for (std::future<void>& task : inflight) {
    if (task.valid()) task.wait();
  }
}

DiskGroundSet::BlockData DiskGroundSet::load_block(std::size_t index) const {
  const std::size_t first = index * config_.block_edges;
  const std::size_t total = num_edges();
  const std::size_t count = std::min(config_.block_edges, total - first);
  auto edges = std::make_shared<std::vector<Edge>>(count);
  pread_exact(fd_, edges->data(), count * sizeof(Edge),
              edge_base_offset_ + first * sizeof(Edge), "edge block",
              DiskFormatError::Kind::kShortRead, &read_retries_);
  return edges;
}

DiskGroundSet::BlockData DiskGroundSet::insert_block(Shard& shard,
                                                     std::size_t index,
                                                     BlockData data) const {
  // Caller holds shard.mutex. A racing loader may have inserted the block
  // while we were reading; keep the resident copy and drop ours.
  if (const auto it = shard.blocks.find(index); it != shard.blocks.end()) {
    shard.lru.erase(it->second.lru_position);
    shard.lru.push_front(index);
    it->second.lru_position = shard.lru.begin();
    return it->second.edges;
  }
  while (shard.blocks.size() >= shard.capacity) {
    const std::size_t victim = shard.lru.back();
    shard.lru.pop_back();
    shard.blocks.erase(victim);
    resident_blocks_.fetch_sub(1, std::memory_order_relaxed);
  }
  shard.lru.push_front(index);
  shard.blocks.emplace(index, Shard::Entry{data, shard.lru.begin()});
  const std::size_t resident =
      resident_blocks_.fetch_add(1, std::memory_order_relaxed) + 1;
  std::size_t high = resident_high_water_.load(std::memory_order_relaxed);
  while (high < resident && !resident_high_water_.compare_exchange_weak(
                                high, resident, std::memory_order_relaxed)) {
  }
  return data;
}

DiskGroundSet::BlockData DiskGroundSet::block(std::size_t index,
                                              bool demand) const {
  Shard& shard = shard_for(index);
  {
    std::lock_guard lock(shard.mutex);
    if (const auto it = shard.blocks.find(index); it != shard.blocks.end()) {
      if (demand) {
        ++shard.hits;
      } else {
        ++shard.prefetch_issued;
      }
      shard.lru.erase(it->second.lru_position);
      shard.lru.push_front(index);
      it->second.lru_position = shard.lru.begin();
      return it->second.edges;
    }
    if (demand) ++shard.misses;
  }
  // Disk I/O with no lock held: concurrent misses on one shard read in
  // parallel; insert_block resolves the race.
  BlockData data = load_block(index);
  const std::vector<Edge>* loaded = data.get();
  std::lock_guard lock(shard.mutex);
  BlockData winner = insert_block(shard, index, std::move(data));
  // prefetch_loaded counts blocks ACTUALLY paged in by the prefetcher: only
  // the loader whose payload won the insert race counts, so the counter can
  // never exceed the blocks resident-ever. The block counts as issued in the
  // same critical section, so no snapshot sees it loaded but not issued.
  if (!demand) {
    ++shard.prefetch_issued;
    if (winner.get() == loaded) ++shard.prefetch_loaded;
  }
  return winner;
}

void DiskGroundSet::count_pinned_hit() const {
  if (t_pins.hits_owner.load(std::memory_order_relaxed) != instance_id_) {
    // Deferred hits of another (possibly destroyed) instance are dropped
    // rather than misattributed.
    t_pins.pending_hits.store(0, std::memory_order_relaxed);
    t_pins.hits_owner.store(instance_id_, std::memory_order_relaxed);
  }
  t_pins.pending_hits.fetch_add(1, std::memory_order_relaxed);
}

const void* DiskGroundSet::pin_block(const void* key, std::size_t index,
                                     const BlockData& data) const {
  if (t_pins.hits_owner.load(std::memory_order_relaxed) == instance_id_) {
    const std::uint64_t pending =
        t_pins.pending_hits.exchange(0, std::memory_order_relaxed);
    if (pending > 0) {
      pinned_hits_.fetch_add(pending, std::memory_order_relaxed);
    }
  } else {
    // Taking over from another (possibly destroyed) instance drops its
    // deferred hits rather than misattributing them, like count_pinned_hit.
    t_pins.pending_hits.store(0, std::memory_order_relaxed);
    t_pins.hits_owner.store(instance_id_, std::memory_order_relaxed);
  }

  sweep_dead_pins();

  // Reuse this scratch's slot (replacing it invalidates exactly the span
  // previously served for this scratch — the documented contract). Otherwise
  // take a slot no live span can depend on: an empty slot, or a
  // nullptr-keyed (copy-path) slot of ANY instance. A scratch-keyed slot —
  // ours or another live instance's — may back a live span on this thread
  // and is never reclaimed: when all slots are scratch-keyed (more
  // simultaneously-live scratches than kPinSlots), we return nullptr and
  // the caller serves by copy instead. Zero-copy is an optimization here,
  // never a way to dangle a span.
  PinSlot* slot = nullptr;
  PinSlot* empty_slot = nullptr;
  PinSlot* copy_slot = nullptr;  // occupied but nullptr-keyed: span-free
  for (PinSlot& candidate : t_pins.slots) {
    if (candidate.owner == instance_id_ && candidate.key == key) {
      slot = &candidate;
      break;
    }
    if (candidate.owner == 0) {
      if (empty_slot == nullptr) empty_slot = &candidate;
    } else if (candidate.key == nullptr) {
      if (copy_slot == nullptr) copy_slot = &candidate;
    }
  }
  if (slot == nullptr) slot = empty_slot != nullptr ? empty_slot : copy_slot;
  if (slot == nullptr) return nullptr;
  t_pins.mru = static_cast<std::size_t>(slot - t_pins.slots);
  slot->key = key;
  slot->owner = instance_id_;
  slot->first_edge = index * config_.block_edges;
  slot->end_edge = slot->first_edge + data->size();
  slot->data = data;
  return slot;
}

const DiskGroundSet::BlockData* DiskGroundSet::find_pinned(
    std::size_t first, std::size_t last, std::size_t& block_first) const {
  for (const PinSlot& slot : t_pins.slots) {
    if (slot.owner == instance_id_ && first >= slot.first_edge &&
        last <= slot.end_edge) {
      block_first = slot.first_edge;
      return &slot.data;
    }
  }
  return nullptr;
}

void DiskGroundSet::neighbors(NodeId v, std::vector<Edge>& out) const {
  const auto i = static_cast<std::size_t>(v);
  const auto first = static_cast<std::size_t>(offsets_[i]);
  const auto last = static_cast<std::size_t>(offsets_[i + 1]);
  out.clear();
  out.reserve(last - first);

  // Lock-free fast path: the whole range sits in a block this thread has
  // pinned (the copy-out path hands out no references, so any slot serves).
  std::size_t pinned_first = 0;
  if (const BlockData* pinned = find_pinned(first, last, pinned_first)) {
    count_pinned_hit();
    const auto begin =
        (*pinned)->begin() + static_cast<std::ptrdiff_t>(first - pinned_first);
    out.insert(out.end(), begin,
               begin + static_cast<std::ptrdiff_t>(last - first));
    return;
  }

  std::size_t cursor = first;
  BlockData final_block;
  std::size_t final_index = 0;
  while (cursor < last) {
    const std::size_t block_index = cursor / config_.block_edges;
    const std::size_t block_begin = block_index * config_.block_edges;
    const BlockData edges = block(block_index, /*demand=*/true);
    const std::size_t from = cursor - block_begin;
    const std::size_t to = std::min(last - block_begin, edges->size());
    out.insert(out.end(), edges->begin() + static_cast<std::ptrdiff_t>(from),
               edges->begin() + static_cast<std::ptrdiff_t>(to));
    cursor = block_begin + to;
    final_block = edges;
    final_index = block_index;
  }
  // Accelerate future lookups near this block; keyed by nullptr (no caller
  // span depends on this slot); skipped silently when every slot may back a
  // live span.
  if (final_block != nullptr) pin_block(nullptr, final_index, final_block);
}

std::span<const Edge> DiskGroundSet::neighbors_span(
    NodeId v, std::vector<Edge>& scratch) const {
  const auto i = static_cast<std::size_t>(v);
  const auto first = static_cast<std::size_t>(offsets_[i]);
  const auto last = static_cast<std::size_t>(offsets_[i + 1]);
  if (first == last) return {};

  // Zero-copy serving requires the span to survive until THIS scratch is
  // reused, even across reads with other scratches (nested traversals): the
  // block must be pinned under this scratch's own slot. Streaming readers
  // hit the same slot for a whole block's worth of nodes — check the
  // most-recently-served slot before scanning the table.
  {
    const PinSlot& mru = t_pins.slots[t_pins.mru];
    if (mru.owner == instance_id_ && mru.key == &scratch &&
        first >= mru.first_edge && last <= mru.end_edge) {
      count_pinned_hit();
      return {mru.data->data() + (first - mru.first_edge), last - first};
    }
  }
  for (std::size_t s = 0; s < kPinSlots; ++s) {
    const PinSlot& slot = t_pins.slots[s];
    if (slot.owner == instance_id_ && slot.key == &scratch &&
        first >= slot.first_edge && last <= slot.end_edge) {
      t_pins.mru = s;
      count_pinned_hit();
      return {slot.data->data() + (first - slot.first_edge), last - first};
    }
  }

  const std::size_t block_index = first / config_.block_edges;
  const std::size_t block_begin = block_index * config_.block_edges;
  if (last <= block_begin + config_.block_edges) {
    // One block covers the range. Serve it zero-copy: reuse another slot's
    // payload when one covers the block (shared_ptr copy, no lock), else
    // fetch through the cache; either way pin under this scratch's slot.
    std::size_t pinned_first = 0;
    BlockData data;
    if (const BlockData* pinned = find_pinned(block_begin,
                                              std::min(block_begin + config_.block_edges,
                                                       num_edges()),
                                              pinned_first)) {
      count_pinned_hit();
      data = *pinned;
    } else {
      data = block(block_index, /*demand=*/true);
    }
    if (const auto* slot =
            static_cast<const PinSlot*>(pin_block(&scratch, block_index, data))) {
      return {slot->data->data() + (first - block_begin), last - first};
    }
    // More simultaneously-live scratches than pin slots: serve this one by
    // copy — scratch owns its storage, so the span can never dangle.
    scratch.assign(data->begin() + static_cast<std::ptrdiff_t>(first - block_begin),
                   data->begin() + static_cast<std::ptrdiff_t>(last - block_begin));
    return {scratch.data(), scratch.size()};
  }

  // Straddles blocks: fall back to the copying path; the span then lives in
  // the caller's scratch, which owns its storage.
  neighbors(v, scratch);
  return {scratch.data(), scratch.size()};
}

void DiskGroundSet::prefetch(std::span<const NodeId> nodes,
                             ThreadPool* pool) const {
  if (nodes.empty() || num_edges() == 0) return;

  // Collect the distinct blocks behind the nodes' edge ranges. The plan is
  // partition-shaped (arbitrary node ids), so neighboring nodes often share
  // blocks; sort + unique keeps one load per block and sequential I/O order.
  std::vector<std::size_t> blocks;
  blocks.reserve(nodes.size());
  for (const NodeId v : nodes) {
    const auto i = static_cast<std::size_t>(v);
    const auto first = static_cast<std::size_t>(offsets_[i]);
    const auto last = static_cast<std::size_t>(offsets_[i + 1]);
    if (first == last) continue;  // degree-0: no block to page
    for (std::size_t block_index = first / config_.block_edges;
         block_index * config_.block_edges < last; ++block_index) {
      blocks.push_back(block_index);
    }
  }
  std::sort(blocks.begin(), blocks.end());
  blocks.erase(std::unique(blocks.begin(), blocks.end()), blocks.end());
  // Paging in more than a shard can hold would evict blocks this very
  // prefetch just loaded, so cap per shard at its capacity (eviction is
  // per-shard; a global cap alone would let a shard-skewed plan thrash its
  // own loads). Kept blocks remain in file order, lowest offsets first.
  {
    std::vector<std::size_t> taken(shards_.size(), 0);
    std::size_t kept = 0;
    for (const std::size_t index : blocks) {
      const std::size_t s = index % shards_.size();
      if (taken[s] < shards_[s].capacity) {
        blocks[kept++] = index;
        ++taken[s];
      }
    }
    blocks.resize(kept);
  }
  // Each kept block counts as issued when block() reaches it, or as
  // abandoned (prefetch_degraded_, which stats() adds to the issued count)
  // when the hint gives up before it.

  if (pool == nullptr) {
    // Best-effort like the pool path: a hint never throws — the demand read
    // is the loud failure point for a file gone bad. Abandoned blocks are
    // counted so operators can see the hint pipeline degrading.
    for (std::size_t i = 0; i < blocks.size(); ++i) {
      if (SUBSEL_FAILPOINT_TRIGGERED("disk.prefetch")) {
        prefetch_degraded_.fetch_add(blocks.size() - i,
                                     std::memory_order_relaxed);
        return;
      }
      try {
        block(blocks[i], /*demand=*/false);
      } catch (const DiskFormatError&) {
        prefetch_degraded_.fetch_add(blocks.size() - i,
                                     std::memory_order_relaxed);
        return;
      }
    }
    return;
  }

  std::lock_guard lock(prefetch_mutex_);
  // Prune finished tasks so a long-lived ground set doesn't accumulate
  // futures across rounds.
  std::erase_if(prefetch_inflight_, [](std::future<void>& task) {
    return !task.valid() ||
           task.wait_for(std::chrono::seconds(0)) == std::future_status::ready;
  });
  for (std::size_t begin = 0; begin < blocks.size();
       begin += kPrefetchBlocksPerTask) {
    const std::size_t end =
        std::min(blocks.size(), begin + kPrefetchBlocksPerTask);
    std::vector<std::size_t> chunk(blocks.begin() + static_cast<std::ptrdiff_t>(begin),
                                   blocks.begin() + static_cast<std::ptrdiff_t>(end));
    prefetch_inflight_.push_back(pool->submit([this, chunk = std::move(chunk)] {
      for (std::size_t i = 0; i < chunk.size(); ++i) {
        if (SUBSEL_FAILPOINT_TRIGGERED("disk.prefetch")) {
          // Injected async-I/O failure: the hint task degrades silently and
          // the abandoned blocks become ordinary demand misses later.
          prefetch_degraded_.fetch_add(chunk.size() - i,
                                       std::memory_order_relaxed);
          return;
        }
        try {
          block(chunk[i], /*demand=*/false);
        } catch (const DiskFormatError&) {
          // A shrunken file fails loudly on the demand path; the prefetch
          // hint stays best-effort, but the degradation is counted.
          prefetch_degraded_.fetch_add(chunk.size() - i,
                                       std::memory_order_relaxed);
          return;
        }
      }
    }));
  }
}

std::size_t DiskGroundSet::resident_bytes() const noexcept {
  return offsets_.size() * sizeof(std::int64_t) +
         utilities_.size() * sizeof(double) +
         config_.max_cached_blocks * config_.block_edges * sizeof(Edge);
}

DiskCacheStats DiskGroundSet::stats() const noexcept {
  DiskCacheStats stats;
  for (const Shard& shard : shards_) {
    std::lock_guard lock(shard.mutex);
    stats.hits += shard.hits;
    stats.misses += shard.misses;
    stats.prefetch_issued += shard.prefetch_issued;
    stats.prefetch_loaded += shard.prefetch_loaded;
  }
  stats.hits += pinned_hits_.load(std::memory_order_relaxed);
  {
    // Include every thread's deferred pinned-hit count, so snapshots are
    // accurate even for threads that never pin again. pinned_hits_ was read
    // BEFORE these pendings, so a concurrent flush can only undercount
    // transiently — never double count.
    std::lock_guard lock(pins_registry_mutex());
    for (const ThreadPins* pins : pins_registry()) {
      if (pins->hits_owner.load(std::memory_order_relaxed) == instance_id_) {
        stats.hits += pins->pending_hits.load(std::memory_order_relaxed);
      }
    }
  }
  stats.read_retries = read_retries_.load(std::memory_order_relaxed);
  stats.prefetch_degraded = prefetch_degraded_.load(std::memory_order_relaxed);
  // Abandoned hint blocks were issued too; they never reached a shard.
  stats.prefetch_issued += stats.prefetch_degraded;
  stats.resident_blocks = resident_blocks_.load(std::memory_order_relaxed);
  stats.resident_blocks_high_water =
      resident_high_water_.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace subsel::graph
