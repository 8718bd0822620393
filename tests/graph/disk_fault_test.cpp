// Fault injection against the disk layer: transient pread failures are
// absorbed by the bounded-backoff retry loop without changing any byte of
// the results, persistent failures are promoted to the typed kIo error,
// prefetch failures degrade into counted demand misses, and an open fault
// surfaces as the same typed error a real unreachable file would.
#include "graph/disk_ground_set.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <vector>

#include "../testing/temp_dir.h"
#include "common/failpoint.h"
#include "data/datasets.h"

namespace subsel::graph {
namespace {

class DiskFaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    failpoint::disarm_all();
    dir_ = testing::process_temp_path("subsel_disk_fault_test");
    std::filesystem::create_directories(dir_);
    dataset_ = data::toy_dataset(800, 10, 44);
    graph_path_ = (dir_ / "graph.bin").string();
    dataset_.graph.save(graph_path_);
  }
  void TearDown() override {
    failpoint::disarm_all();
    std::filesystem::remove_all(dir_);
  }

  /// Small blocks so a full scan issues enough preads to matter.
  static DiskGroundSetConfig small_blocks() {
    DiskGroundSetConfig config;
    config.block_edges = 64;
    config.max_cached_blocks = 8;
    config.num_shards = 4;
    return config;
  }

  std::filesystem::path dir_;
  data::Dataset dataset_;
  std::string graph_path_;
};

TEST_F(DiskFaultTest, TransientReadFaultsAreRetriedWithoutChangingResults) {
  // Open clean, then fail every 5th pread attempt. Because a failed attempt
  // is itself a hit, every(5) can never produce the 6 consecutive failures
  // that would promote to kIo — every read eventually succeeds.
  const DiskGroundSet disk(graph_path_, dataset_.utilities, small_blocks());
  const InMemoryGroundSet memory(dataset_.graph, dataset_.utilities);
  failpoint::arm_from_spec("disk.pread=every(5)");

  std::vector<Edge> disk_edges, memory_edges;
  for (NodeId v = 0; v < static_cast<NodeId>(disk.num_points()); ++v) {
    disk.neighbors(v, disk_edges);
    memory.neighbors(v, memory_edges);
    ASSERT_EQ(disk_edges, memory_edges) << "node " << v;
  }
  EXPECT_GT(disk.stats().read_retries, 0u)
      << "the injected faults should have exercised the retry loop";
}

TEST_F(DiskFaultTest, PersistentReadFaultsPromoteToTypedIoError) {
  const DiskGroundSet disk(graph_path_, dataset_.utilities, small_blocks());
  failpoint::arm_from_spec("disk.pread=every(1)");
  std::vector<Edge> edges;
  try {
    disk.neighbors(0, edges);
    FAIL() << "expected DiskFormatError";
  } catch (const DiskFormatError& e) {
    EXPECT_EQ(e.kind(), DiskFormatError::Kind::kIo);
  }
  // The instance is not poisoned: disarm and the same read succeeds.
  failpoint::disarm_all();
  disk.neighbors(0, edges);
  EXPECT_EQ(edges.size(), disk.degree(0));
}

TEST_F(DiskFaultTest, PrefetchFaultsDegradeIntoCountedMisses) {
  const DiskGroundSet disk(graph_path_, dataset_.utilities, small_blocks());
  failpoint::arm_from_spec("disk.prefetch=nth(1)");

  std::vector<NodeId> nodes;
  for (NodeId v = 0; v < 64; ++v) nodes.push_back(v);
  // Inline (pool-less) prefetch: the hint fails silently, never throws.
  EXPECT_NO_THROW(disk.prefetch(nodes, nullptr));
  EXPECT_GT(disk.stats().prefetch_degraded, 0u);

  // The abandoned hints degrade into ordinary demand reads: results intact.
  failpoint::disarm_all();
  const InMemoryGroundSet memory(dataset_.graph, dataset_.utilities);
  std::vector<Edge> disk_edges, memory_edges;
  for (NodeId v : nodes) {
    disk.neighbors(v, disk_edges);
    memory.neighbors(v, memory_edges);
    ASSERT_EQ(disk_edges, memory_edges) << "node " << v;
  }
}

TEST_F(DiskFaultTest, OpenFaultThrowsTypedError) {
  failpoint::arm_from_spec("disk.open=nth(1)");
  try {
    const DiskGroundSet disk(graph_path_, dataset_.utilities);
    FAIL() << "expected DiskFormatError";
  } catch (const DiskFormatError& e) {
    EXPECT_EQ(e.kind(), DiskFormatError::Kind::kOpen);
    EXPECT_NE(std::string(e.what()).find("injected fault at 'disk.open'"),
              std::string::npos);
  }
  // nth(1) is spent: the next open succeeds.
  EXPECT_NO_THROW(DiskGroundSet(graph_path_, dataset_.utilities));
}

TEST_F(DiskFaultTest, CacheBudgetHeldUnderInjectedFaults) {
  const auto config = small_blocks();
  const DiskGroundSet disk(graph_path_, dataset_.utilities, config);
  failpoint::arm_from_spec("disk.pread=every(7);disk.prefetch=every(3)");

  std::vector<NodeId> nodes;
  for (NodeId v = 0; v < static_cast<NodeId>(disk.num_points()); ++v) {
    nodes.push_back(v);
  }
  disk.prefetch(nodes, nullptr);
  std::vector<Edge> edges;
  for (NodeId v : nodes) disk.neighbors(v, edges);

  const DiskCacheStats stats = disk.stats();
  EXPECT_LE(stats.resident_blocks_high_water, config.max_cached_blocks)
      << "faults must never inflate the residency budget";
}

}  // namespace
}  // namespace subsel::graph
