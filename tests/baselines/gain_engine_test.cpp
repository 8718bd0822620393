// The full-ground-set gain engine behind the centralized baselines: pairwise
// gains are maintained (Algorithm 2's accounting), so a solve reads one
// neighborhood per selection, and the maintained array stays in bounds when
// the ground set grows underneath it.
#include "baselines/gain_engine.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <functional>

#include "../testing/test_instances.h"
#include "baselines/baselines.h"
#include "baselines/streaming.h"
#include "graph/disk_ground_set.h"
#include "graph/overlay_ground_set.h"

namespace subsel::baselines {
namespace {

using subsel::testing::Instance;
using subsel::testing::random_instance;

TEST(MarginalGainEngine, SelectSkipsNeighborsAddedAfterConstruction) {
  // An overlay may grow mid-solve: insert() adds the reverse edge to a live
  // node, so N(v) can name an id >= the n the engine was built over.
  const std::size_t n = 80;
  const Instance instance = random_instance(n, 5, 41500);
  const auto base = instance.ground_set();
  graph::OverlayGroundSet overlay(base);
  const auto params = ObjectiveParams::from_alpha(0.9);
  const core::PairwiseKernel kernel(overlay, params);
  const core::PairwiseKernel base_kernel(base, params);
  MarginalGainEngine engine(kernel);
  MarginalGainEngine reference(base_kernel);

  const NodeId v = 17;
  const graph::Edge edge{v, 0.5f};
  const NodeId added = overlay.insert(1.0, std::span<const graph::Edge>(&edge, 1));
  ASSERT_EQ(added, static_cast<NodeId>(n));
  ASSERT_EQ(overlay.degree(v), base.degree(v) + 1);

  engine.select(v);
  reference.select(v);
  std::vector<std::uint8_t> membership(n, 0);
  membership[static_cast<std::size_t>(v)] = 1;
  for (std::size_t i = 0; i < n; ++i) {
    const auto u = static_cast<NodeId>(i);
    if (u == v) continue;
    EXPECT_EQ(engine.gain(u), reference.gain(u)) << u;
    EXPECT_EQ(engine.gain(u), base_kernel.marginal_gain(membership, u)) << u;
  }
}

class OutOfCoreReadsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() / "subsel_gain_engine_reads_test";
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::filesystem::path dir_;
};

TEST_F(OutOfCoreReadsTest, PairwiseBaselinesReadOneNeighborhoodPerSelection) {
  // The gate counts block reads instead of timing them. With blocks no
  // smaller than the largest neighborhood, one neighborhood read costs at
  // most two cache lookups (hit or miss), so a solve that reads N(s) once
  // per selection stays within 2·|S| — and one that re-reads a candidate's
  // neighborhood per evaluated gain does not.
  const Instance instance = random_instance(600, 6, 41510);
  const std::string graph_path = (dir_ / "reads.graph").string();
  instance.graph.save(graph_path);
  graph::DiskGroundSetConfig config;
  config.block_edges = instance.graph.max_degree();
  config.max_cached_blocks = 2;
  config.num_shards = 1;
  const graph::DiskGroundSet disk(graph_path, instance.utilities, config);
  const core::PairwiseKernel kernel(disk, ObjectiveParams::from_alpha(0.9));
  const std::size_t k = 200;

  const std::pair<const char*, std::function<GreedyResult()>> solvers[] = {
      {"lazy_greedy", [&] { return lazy_greedy(kernel, k); }},
      {"stochastic_greedy", [&] { return stochastic_greedy(kernel, k, 0.1, 7); }},
      {"threshold_greedy", [&] { return threshold_greedy(kernel, k, 0.1); }},
  };
  for (const auto& [name, solve] : solvers) {
    const graph::DiskCacheStats before = disk.stats();
    const GreedyResult result = solve();
    const graph::DiskCacheStats after = disk.stats();
    const std::uint64_t reads =
        (after.hits + after.misses) - (before.hits + before.misses);
    ASSERT_EQ(result.selected.size(), k) << name;
    EXPECT_GT(reads, 0u) << name;
    EXPECT_LE(reads, 2 * result.selected.size()) << name;
  }
}

}  // namespace
}  // namespace subsel::baselines
