// Concurrency stress for the sharded out-of-core engine: ThreadPool workers
// hammer one DiskGroundSet with overlapping partition reads while prefetch
// tasks race them on the same pool, under a cache budget small enough that
// eviction is constant. Every neighborhood read is validated against a
// per-node checksum precomputed from the in-memory graph — a torn read, a
// block stitched at the wrong boundary, or an eviction race serving freed
// memory all change the checksum. CI additionally runs this binary under
// ThreadSanitizer (see .github/workflows/ci.yml, job tsan), which turns any
// lock-discipline mistake into a hard failure even when the data happens to
// come out right.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <filesystem>
#include <vector>

#include "../testing/temp_dir.h"
#include "../testing/test_instances.h"
#include "common/thread_pool.h"
#include "graph/disk_ground_set.h"

namespace subsel::graph {
namespace {

using subsel::testing::Instance;
using subsel::testing::random_instance;

std::uint64_t edge_checksum(std::uint64_t seed, const Edge& edge) {
  std::uint32_t weight_bits = 0;
  std::memcpy(&weight_bits, &edge.weight, sizeof(weight_bits));
  std::uint64_t h = seed ^ (static_cast<std::uint64_t>(edge.neighbor) +
                            0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2));
  return h ^ (weight_bits * 0x100000001b3ULL);
}

std::uint64_t node_checksum(std::span<const Edge> edges) {
  std::uint64_t h = 0x5eed;
  for (const Edge& edge : edges) h = edge_checksum(h, edge);
  return h;
}

class DiskStressTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = testing::process_temp_path("subsel_disk_stress_test");
    std::filesystem::create_directories(dir_);
    instance_ = random_instance(1500, 8, 77031);
    graph_path_ = (dir_ / "stress.graph").string();
    instance_.graph.save(graph_path_);
    expected_.resize(instance_.graph.num_nodes());
    for (NodeId v = 0; v < static_cast<NodeId>(expected_.size()); ++v) {
      expected_[static_cast<std::size_t>(v)] =
          node_checksum(instance_.graph.neighbors(v));
    }
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::filesystem::path dir_;
  Instance instance_;
  std::string graph_path_;
  std::vector<std::uint64_t> expected_;
};

TEST_F(DiskStressTest, OverlappingPartitionReadsWithConcurrentPrefetch) {
  DiskGroundSetConfig config;
  config.block_edges = 64;    // many small blocks -> constant block crossings
  config.max_cached_blocks = 12;  // far below the file -> constant eviction
  config.num_shards = 4;
  const DiskGroundSet disk(graph_path_, instance_.utilities, config);
  const auto n = static_cast<NodeId>(disk.num_points());

  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kWaves = 3;
  ThreadPool pool(kThreads);

  // Overlapping "partitions": worker w reads the window starting at w * n/16
  // of length n/2, so every pair of adjacent workers shares half its nodes
  // and every block is demanded by several workers at once. Odd workers walk
  // backwards so LRU recency is adversarial, and each worker prefetches the
  // window of the NEXT worker mid-scan — prefetch loads race demand loads on
  // the same blocks by construction.
  std::atomic<std::size_t> mismatches{0};
  for (std::size_t wave = 0; wave < kWaves; ++wave) {
    pool.parallel_for(kThreads * 2, [&](std::size_t task) {
      const std::size_t window = static_cast<std::size_t>(n) / 2;
      const std::size_t start =
          (task * static_cast<std::size_t>(n)) / (kThreads * 2);
      std::vector<Edge> scratch;
      std::vector<NodeId> prefetch_window;
      for (std::size_t step = 0; step < window; ++step) {
        const std::size_t offset = (task % 2 == 0) ? step : window - 1 - step;
        const auto v =
            static_cast<NodeId>((start + offset) % static_cast<std::size_t>(n));
        const auto edges = disk.neighbors_span(v, scratch);
        if (node_checksum(edges) != expected_[static_cast<std::size_t>(v)]) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
        if (step == window / 2) {
          // Race a prefetch of the next worker's window against everyone.
          prefetch_window.clear();
          for (std::size_t i = 0; i < window / 4; ++i) {
            prefetch_window.push_back(static_cast<NodeId>(
                (start + window + i) % static_cast<std::size_t>(n)));
          }
          disk.prefetch(std::span<const NodeId>(prefetch_window), &pool);
        }
      }
    });
  }
  disk.drain_prefetch();

  EXPECT_EQ(mismatches.load(), 0u) << "torn or misdirected block reads";
  const DiskCacheStats stats = disk.stats();
  EXPECT_GT(stats.misses, 0u) << "the budget must force real paging";
  EXPECT_GT(stats.prefetch_issued, 0u);
  EXPECT_LE(stats.resident_blocks_high_water, config.max_cached_blocks)
      << "the sharded cache exceeded its block budget";
  EXPECT_LE(stats.resident_blocks, config.max_cached_blocks);
}

TEST_F(DiskStressTest, SingleShardSingleBlockUnderConcurrency) {
  // The degenerate geometry (one shard, one resident block) is the worst
  // case for eviction races: every concurrent reader displaces the only
  // block. Data must still be exact.
  DiskGroundSetConfig config;
  config.block_edges = 32;
  config.max_cached_blocks = 1;
  config.num_shards = 1;
  const DiskGroundSet disk(graph_path_, instance_.utilities, config);
  const auto n = static_cast<NodeId>(disk.num_points());

  ThreadPool pool(8);
  std::atomic<std::size_t> mismatches{0};
  pool.parallel_for(16, [&](std::size_t task) {
    Rng rng(9000 + task);
    std::vector<Edge> scratch;
    for (std::size_t step = 0; step < 400; ++step) {
      const auto v = static_cast<NodeId>(rng.uniform_index(
          static_cast<std::size_t>(n)));
      const auto edges = disk.neighbors_span(v, scratch);
      if (node_checksum(edges) != expected_[static_cast<std::size_t>(v)]) {
        mismatches.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });
  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_LE(disk.stats().resident_blocks, 1u);
}

TEST_F(DiskStressTest, ConcurrentStatsReadsAreConsistent) {
  // stats() may be polled from a monitoring thread while workers read;
  // it must stay data-race-free (TSan) and monotone.
  DiskGroundSetConfig config;
  config.block_edges = 128;
  config.max_cached_blocks = 8;
  config.num_shards = 4;
  const DiskGroundSet disk(graph_path_, instance_.utilities, config);
  const auto n = static_cast<NodeId>(disk.num_points());

  ThreadPool pool(4);
  std::atomic<bool> done{false};
  auto monitor = pool.submit([&] {
    while (!done.load(std::memory_order_relaxed)) {
      // Hit counts may dip transiently mid-flush (deferred per-thread tails
      // move into the instance counter non-atomically — documented), so the
      // monitor asserts only the hard invariants: the budget and that the
      // snapshot itself is race-free (which TSan enforces).
      const DiskCacheStats stats = disk.stats();
      EXPECT_LE(stats.resident_blocks, config.max_cached_blocks);
      EXPECT_LE(stats.resident_blocks_high_water, config.max_cached_blocks);
    }
  });
  pool.parallel_for(8, [&](std::size_t task) {
    Rng rng(1234 + task);
    std::vector<Edge> edges;
    for (std::size_t step = 0; step < 500; ++step) {
      disk.neighbors(
          static_cast<NodeId>(rng.uniform_index(static_cast<std::size_t>(n))),
          edges);
    }
  });
  done.store(true, std::memory_order_relaxed);
  monitor.get();
}

}  // namespace
}  // namespace subsel::graph
