// Disk-backed ground set: exact equivalence with the in-memory ground set,
// bounded residency, sharded-cache behavior, prefetch, thread safety under
// the parallel bounding pass, and strict typed validation of the on-disk
// format (truncation, foreign magic, bad version, corrupt offsets, and
// files that shrink underneath a live reader).
#include "graph/disk_ground_set.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <future>

#include "../testing/temp_dir.h"
#include "common/serialize.h"
#include "common/thread_pool.h"
#include "core/bounding.h"
#include "core/distributed_greedy.h"
#include "data/datasets.h"

namespace subsel::graph {
namespace {

class DiskGroundSetTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = testing::process_temp_path("subsel_disk_gs_test");
    std::filesystem::create_directories(dir_);
    dataset_ = data::toy_dataset(800, 10, 44);
    graph_path_ = (dir_ / "graph.bin").string();
    dataset_.graph.save(graph_path_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::filesystem::path dir_;
  data::Dataset dataset_;
  std::string graph_path_;
};

TEST_F(DiskGroundSetTest, MatchesInMemoryGroundSetExactly) {
  const DiskGroundSet disk(graph_path_, dataset_.utilities);
  const InMemoryGroundSet memory(dataset_.graph, dataset_.utilities);

  ASSERT_EQ(disk.num_points(), memory.num_points());
  std::vector<Edge> disk_edges, memory_edges;
  for (NodeId v = 0; v < static_cast<NodeId>(disk.num_points()); ++v) {
    EXPECT_EQ(disk.utility(v), memory.utility(v));
    EXPECT_EQ(disk.degree(v), memory.degree(v));
    disk.neighbors(v, disk_edges);
    memory.neighbors(v, memory_edges);
    ASSERT_EQ(disk_edges.size(), memory_edges.size()) << "node " << v;
    for (std::size_t e = 0; e < disk_edges.size(); ++e) {
      EXPECT_EQ(disk_edges[e], memory_edges[e]) << "node " << v << " edge " << e;
    }
  }
}

TEST_F(DiskGroundSetTest, TinyCacheStillCorrect) {
  // One cached block of 8 edges: nearly every access misses, results must
  // not change.
  DiskGroundSetConfig config;
  config.block_edges = 8;
  config.max_cached_blocks = 1;
  const DiskGroundSet disk(graph_path_, dataset_.utilities, config);
  const InMemoryGroundSet memory(dataset_.graph, dataset_.utilities);

  std::vector<Edge> disk_edges, memory_edges;
  for (NodeId v = 0; v < static_cast<NodeId>(disk.num_points()); ++v) {
    disk.neighbors(v, disk_edges);
    memory.neighbors(v, memory_edges);
    ASSERT_EQ(disk_edges, memory_edges) << "node " << v;
  }
  EXPECT_GT(disk.stats().misses, 0u);
}

TEST_F(DiskGroundSetTest, ResidencyIsBoundedAndFarBelowEdgeBytes) {
  DiskGroundSetConfig config;
  config.block_edges = 256;
  config.max_cached_blocks = 4;
  const DiskGroundSet disk(graph_path_, dataset_.utilities, config);

  const std::size_t edge_bytes = disk.num_edges() * sizeof(Edge);
  const std::size_t scalars =
      disk.num_points() * (sizeof(std::int64_t) + sizeof(double));
  EXPECT_EQ(disk.resident_bytes(),
            scalars + sizeof(std::int64_t) /*offsets has n+1 entries*/ +
                config.max_cached_blocks * config.block_edges * sizeof(Edge));
  EXPECT_LT(disk.resident_bytes() - scalars, edge_bytes / 2)
      << "cache must be much smaller than the full adjacency";
}

TEST_F(DiskGroundSetTest, SequentialScanHitsCacheMostly) {
  DiskGroundSetConfig config;
  config.block_edges = 1024;
  config.max_cached_blocks = 8;
  const DiskGroundSet disk(graph_path_, dataset_.utilities, config);
  std::vector<Edge> edges;
  for (NodeId v = 0; v < static_cast<NodeId>(disk.num_points()); ++v) {
    disk.neighbors(v, edges);
  }
  // A streaming scan touches each block ~once; hits dominate because many
  // nodes share a block.
  const DiskCacheStats stats = disk.stats();
  EXPECT_GT(stats.hits, 4 * stats.misses);
}

TEST_F(DiskGroundSetTest, BoundingMatchesInMemoryDecisions) {
  const DiskGroundSet disk(graph_path_, dataset_.utilities);
  const InMemoryGroundSet memory(dataset_.graph, dataset_.utilities);

  const auto params = core::ObjectiveParams::from_alpha(0.9);
  core::BoundingConfig config;
  config.sampling = core::BoundingSampling::kUniform;
  config.sample_fraction = 0.3;

  const auto from_disk = core::bound(core::PairwiseKernel(disk, params), 80, config);
  const auto from_memory = core::bound(core::PairwiseKernel(memory, params), 80, config);
  EXPECT_EQ(from_disk.state.selected_ids(), from_memory.state.selected_ids());
  EXPECT_EQ(from_disk.state.unassigned_ids(), from_memory.state.unassigned_ids());
  EXPECT_EQ(from_disk.grow_rounds, from_memory.grow_rounds);
}

TEST_F(DiskGroundSetTest, DistributedGreedyMatchesInMemorySelection) {
  const DiskGroundSet disk(graph_path_, dataset_.utilities);
  const InMemoryGroundSet memory(dataset_.graph, dataset_.utilities);

  const auto params = core::ObjectiveParams::from_alpha(0.9);
  core::DistributedGreedyConfig config;
  config.num_machines = 8;
  config.num_rounds = 3;
  const auto from_disk =
      core::distributed_greedy(core::PairwiseKernel(disk, params), 80, config);
  const auto from_memory =
      core::distributed_greedy(core::PairwiseKernel(memory, params), 80, config);
  EXPECT_EQ(from_disk.selected, from_memory.selected);
  EXPECT_EQ(from_disk.objective, from_memory.objective);
}

TEST_F(DiskGroundSetTest, ShardedConfigurationsAllAgree) {
  const InMemoryGroundSet memory(dataset_.graph, dataset_.utilities);
  for (const std::size_t shards : {1ul, 2ul, 7ul, 64ul}) {
    DiskGroundSetConfig config;
    config.block_edges = 64;
    config.max_cached_blocks = 8;
    config.num_shards = shards;
    const DiskGroundSet disk(graph_path_, dataset_.utilities, config);
    // More shards than blocks collapse to one block per shard; the budget
    // never grows past max_cached_blocks.
    EXPECT_LE(disk.num_shards(), config.max_cached_blocks);
    std::vector<Edge> disk_edges, memory_edges;
    for (NodeId v = 0; v < static_cast<NodeId>(disk.num_points()); ++v) {
      disk.neighbors(v, disk_edges);
      memory.neighbors(v, memory_edges);
      ASSERT_EQ(disk_edges, memory_edges) << "shards " << shards << " node " << v;
    }
    EXPECT_LE(disk.stats().resident_blocks_high_water, config.max_cached_blocks);
  }
}

TEST_F(DiskGroundSetTest, NeighborsSpanIsZeroCopyWithinABlockAndExact) {
  const DiskGroundSet disk(graph_path_, dataset_.utilities);
  const InMemoryGroundSet memory(dataset_.graph, dataset_.utilities);
  std::vector<Edge> scratch, expected;
  std::size_t copies = 0;
  for (NodeId v = 0; v < static_cast<NodeId>(disk.num_points()); ++v) {
    scratch.clear();
    const auto span = disk.neighbors_span(v, scratch);
    memory.neighbors(v, expected);
    ASSERT_EQ(std::vector<Edge>(span.begin(), span.end()), expected)
        << "node " << v;
    if (!scratch.empty()) ++copies;
  }
  // Only neighborhoods that straddle a 4096-edge block boundary may pay the
  // scratch copy — at most one node per boundary; everything else must be
  // served zero-copy out of the pinned block.
  const std::size_t boundaries = disk.num_edges() / 4096;
  EXPECT_LE(copies, boundaries);
}

TEST_F(DiskGroundSetTest, ManySimultaneousScratchesAllStayValid) {
  // More simultaneously-live scratch buffers than the thread has pin slots:
  // the engine must fall back to copying rather than ever invalidating an
  // earlier span (the GroundSet contract: a span dies only when ITS scratch
  // is reused). Take 12 spans with 12 distinct scratches, hold them all,
  // then validate every one.
  const DiskGroundSet disk(graph_path_, dataset_.utilities);
  const InMemoryGroundSet memory(dataset_.graph, dataset_.utilities);

  constexpr std::size_t kSpans = 12;
  std::vector<std::vector<Edge>> scratches(kSpans);
  std::vector<std::span<const Edge>> spans(kSpans);
  for (std::size_t i = 0; i < kSpans; ++i) {
    spans[i] = disk.neighbors_span(static_cast<NodeId>(i * 7), scratches[i]);
  }
  std::vector<Edge> expected;
  for (std::size_t i = 0; i < kSpans; ++i) {
    memory.neighbors(static_cast<NodeId>(i * 7), expected);
    ASSERT_EQ(std::vector<Edge>(spans[i].begin(), spans[i].end()), expected)
        << "span " << i << " was invalidated by a later different-scratch read";
  }
}

TEST_F(DiskGroundSetTest, PrefetchPagesBlocksInAndEliminatesDemandMisses) {
  DiskGroundSetConfig config;
  config.block_edges = 256;
  config.max_cached_blocks = 128;  // covers the whole toy adjacency
  config.num_shards = 8;
  const DiskGroundSet disk(graph_path_, dataset_.utilities, config);

  std::vector<NodeId> all(disk.num_points());
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = static_cast<NodeId>(i);

  // Synchronous prefetch (no pool): afterwards a full scan must not miss.
  disk.prefetch(std::span<const NodeId>(all), nullptr);
  DiskCacheStats stats = disk.stats();
  EXPECT_GT(stats.prefetch_issued, 0u);
  EXPECT_EQ(stats.prefetch_loaded, stats.prefetch_issued);
  EXPECT_EQ(stats.misses, 0u);

  std::vector<Edge> edges;
  for (NodeId v = 0; v < static_cast<NodeId>(disk.num_points()); ++v) {
    disk.neighbors(v, edges);
  }
  stats = disk.stats();
  EXPECT_EQ(stats.misses, 0u) << "scan after full prefetch must be all hits";

  // Asynchronous prefetch on a pool must agree and be drainable.
  const DiskGroundSet async_disk(graph_path_, dataset_.utilities, config);
  ThreadPool pool(4);
  async_disk.prefetch(std::span<const NodeId>(all), &pool);
  async_disk.drain_prefetch();
  EXPECT_EQ(async_disk.stats().prefetch_loaded,
            async_disk.stats().prefetch_issued);
  for (NodeId v = 0; v < static_cast<NodeId>(async_disk.num_points()); ++v) {
    async_disk.neighbors(v, edges);
  }
  EXPECT_EQ(async_disk.stats().misses, 0u);
}

TEST_F(DiskGroundSetTest, PrefetchIsCappedAtTheCacheBudget) {
  DiskGroundSetConfig config;
  config.block_edges = 16;
  config.max_cached_blocks = 4;
  config.num_shards = 2;
  const DiskGroundSet disk(graph_path_, dataset_.utilities, config);
  std::vector<NodeId> all(disk.num_points());
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = static_cast<NodeId>(i);
  disk.prefetch(std::span<const NodeId>(all), nullptr);
  const DiskCacheStats stats = disk.stats();
  // A plan larger than the budget must not be paged past the budget (it
  // would evict its own freshly loaded blocks).
  EXPECT_LE(stats.prefetch_issued, config.max_cached_blocks);
  EXPECT_LE(stats.resident_blocks_high_water, config.max_cached_blocks);
}

TEST_F(DiskGroundSetTest, PrefetchWindowNeverCountsMoreLoadedThanIssued) {
  // A caller reports cache counters as the difference of two snapshots. A
  // prefetch queued before the first snapshot but paged in after it must not
  // show up in the window as loaded without having been issued.
  DiskGroundSetConfig config;
  config.block_edges = 256;
  config.max_cached_blocks = 128;
  config.num_shards = 8;
  const DiskGroundSet disk(graph_path_, dataset_.utilities, config);
  std::vector<NodeId> all(disk.num_points());
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = static_cast<NodeId>(i);

  ThreadPool pool(1);
  std::promise<void> release;
  std::future<void> blocker =
      pool.submit([gate = release.get_future()] { gate.wait(); });
  disk.prefetch(std::span<const NodeId>(all), &pool);  // queued behind blocker
  const DiskCacheStats before = disk.stats();
  release.set_value();
  blocker.wait();
  disk.drain_prefetch();
  const DiskCacheStats after = disk.stats();

  const std::uint64_t issued = after.prefetch_issued - before.prefetch_issued;
  const std::uint64_t loaded = after.prefetch_loaded - before.prefetch_loaded;
  EXPECT_GT(loaded, 0u);
  EXPECT_LE(loaded, issued);
  // Once drained, every kept block was issued and paged in exactly once.
  EXPECT_EQ(after.prefetch_loaded, after.prefetch_issued);
  EXPECT_EQ(after.prefetch_degraded, 0u);
}

TEST_F(DiskGroundSetTest, RejectsNonGraphFile) {
  const std::string bogus = (dir_ / "bogus.bin").string();
  {
    std::ofstream out(bogus, std::ios::binary);
    out << "definitely not a graph but long enough for a header read";
  }
  // Still a runtime_error for pre-existing catch sites, with a typed kind.
  EXPECT_THROW(DiskGroundSet(bogus, dataset_.utilities), std::runtime_error);
  try {
    DiskGroundSet set(bogus, dataset_.utilities);
    FAIL() << "bogus file was accepted";
  } catch (const DiskFormatError& error) {
    EXPECT_EQ(error.kind(), DiskFormatError::Kind::kBadMagic);
  }
}

TEST_F(DiskGroundSetTest, RejectsMissingFileAndWrongUtilityCount) {
  try {
    DiskGroundSet set((dir_ / "missing.bin").string(), dataset_.utilities);
    FAIL() << "missing file was accepted";
  } catch (const DiskFormatError& error) {
    EXPECT_EQ(error.kind(), DiskFormatError::Kind::kOpen);
  }
  std::vector<double> wrong(dataset_.utilities.begin(),
                            dataset_.utilities.end() - 1);
  EXPECT_THROW(DiskGroundSet(graph_path_, wrong), std::invalid_argument);
}

TEST_F(DiskGroundSetTest, RejectsBadCacheConfig) {
  DiskGroundSetConfig config;
  config.block_edges = 0;
  EXPECT_THROW(DiskGroundSet(graph_path_, dataset_.utilities, config),
               std::invalid_argument);
  config = {};
  config.num_shards = 0;
  EXPECT_THROW(DiskGroundSet(graph_path_, dataset_.utilities, config),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Typed corruption / error-path coverage of the on-disk format.
// ---------------------------------------------------------------------------

class DiskFormatErrorTest : public DiskGroundSetTest {
 protected:
  DiskFormatError::Kind open_kind(const std::string& path) {
    try {
      DiskGroundSet set(path, dataset_.utilities);
    } catch (const DiskFormatError& error) {
      return error.kind();
    } catch (const std::exception& e) {
      ADD_FAILURE() << "expected DiskFormatError, got: " << e.what();
    }
    ADD_FAILURE() << "corrupt file " << path << " was accepted";
    return DiskFormatError::Kind::kOpen;
  }

  /// Copies the valid graph file, truncated to `size` bytes.
  std::string truncated_copy(std::uintmax_t size, const char* name) {
    const std::string path = (dir_ / name).string();
    std::filesystem::copy_file(graph_path_, path);
    std::filesystem::resize_file(path, size);
    return path;
  }

  /// Copies the valid graph file and overwrites bytes at `offset`.
  std::string patched_copy(std::uint64_t offset, const void* bytes,
                           std::size_t count, const char* name) {
    const std::string path = (dir_ / name).string();
    std::filesystem::copy_file(graph_path_, path);
    std::fstream file(path, std::ios::binary | std::ios::in | std::ios::out);
    file.seekp(static_cast<std::streamoff>(offset));
    file.write(static_cast<const char*>(bytes),
               static_cast<std::streamsize>(count));
    return path;
  }
};

TEST_F(DiskFormatErrorTest, TruncationAtEveryRegionIsTyped) {
  const auto full = std::filesystem::file_size(graph_path_);
  // Inside the header, inside the offsets array, and inside the edge
  // payload: all must be kTruncated, detected at open (not at first read).
  EXPECT_EQ(open_kind(truncated_copy(6, "header.bin")),
            DiskFormatError::Kind::kTruncated);
  const std::uint64_t offsets_bytes =
      (dataset_.size() + 1) * sizeof(std::int64_t);
  EXPECT_EQ(open_kind(truncated_copy(20 + offsets_bytes / 2, "offsets.bin")),
            DiskFormatError::Kind::kTruncated);
  EXPECT_EQ(open_kind(truncated_copy(full - sizeof(Edge) / 2, "edges.bin")),
            DiskFormatError::Kind::kTruncated);
}

TEST_F(DiskFormatErrorTest, BadMagicAndBadVersionAreDistinguished) {
  const std::uint64_t wrong_magic = 0x4241444d41474943ULL;
  EXPECT_EQ(open_kind(patched_copy(0, &wrong_magic, sizeof(wrong_magic),
                                   "magic.bin")),
            DiskFormatError::Kind::kBadMagic);
  const std::uint32_t wrong_version = 99;
  EXPECT_EQ(open_kind(patched_copy(8, &wrong_version, sizeof(wrong_version),
                                   "version.bin")),
            DiskFormatError::Kind::kBadVersion);
}

TEST_F(DiskFormatErrorTest, OutOfRangeAndNonMonotoneOffsetsAreTyped) {
  // offsets[0] lives right after magic(8) + version(4) + length(8) = 20.
  const std::int64_t negative = -8;
  EXPECT_EQ(open_kind(patched_copy(20, &negative, sizeof(negative),
                                   "negative.bin")),
            DiskFormatError::Kind::kCorruptOffsets);
  // A huge last offset indexes edge blocks past the payload.
  const std::int64_t huge = 1'000'000'000;
  const std::uint64_t last_offset_pos =
      20 + dataset_.size() * sizeof(std::int64_t);
  EXPECT_EQ(open_kind(patched_copy(last_offset_pos, &huge, sizeof(huge),
                                   "out_of_range.bin")),
            DiskFormatError::Kind::kCorruptOffsets);
  // Non-monotone interior offsets would produce negative degrees.
  const std::int64_t backwards[] = {50, 10};
  EXPECT_EQ(open_kind(patched_copy(20 + 8, backwards, sizeof(backwards),
                                   "nonmonotone.bin")),
            DiskFormatError::Kind::kCorruptOffsets);
}

TEST_F(DiskFormatErrorTest, FileShrinkingUnderALiveReaderIsShortRead) {
  // A file that validates at open but is truncated afterwards (another
  // process, a failing disk) must fail the read loudly — never serve
  // garbage. The tiny cache guarantees the late nodes aren't resident yet.
  const std::string path = (dir_ / "shrinking.bin").string();
  std::filesystem::copy_file(graph_path_, path);
  DiskGroundSetConfig config;
  config.block_edges = 64;
  config.max_cached_blocks = 1;
  const DiskGroundSet disk(path, dataset_.utilities, config);
  std::filesystem::resize_file(path, std::filesystem::file_size(path) / 2);

  std::vector<Edge> edges;
  try {
    const auto n = static_cast<NodeId>(disk.num_points());
    for (NodeId v = n - 1; v >= 0; --v) disk.neighbors(v, edges);
    FAIL() << "reads from a shrunken file did not throw";
  } catch (const DiskFormatError& error) {
    EXPECT_EQ(error.kind(), DiskFormatError::Kind::kShortRead);
  }
}

TEST_F(DiskFormatErrorTest, EmptyFileIsTruncatedNotUB) {
  const std::string path = (dir_ / "empty.bin").string();
  { std::ofstream out(path, std::ios::binary); }
  EXPECT_EQ(open_kind(path), DiskFormatError::Kind::kTruncated);
}

}  // namespace
}  // namespace subsel::graph
