#include "data/perturbed.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <map>

#include "../testing/temp_dir.h"

namespace subsel::data {
namespace {

using graph::Edge;
using graph::NodeId;

class PerturbedTest : public ::testing::Test {
 protected:
  void SetUp() override {
    cache_dir_ = testing::process_temp_path("subsel_perturbed_test");
    std::filesystem::create_directories(cache_dir_);
    setenv("SUBSEL_CACHE_DIR", cache_dir_.c_str(), 1);
    base_ = toy_dataset(64, 4, 17);
  }
  void TearDown() override {
    unsetenv("SUBSEL_CACHE_DIR");
    std::filesystem::remove_all(cache_dir_);
  }

  PerturbedConfig config(std::size_t p = 20) {
    PerturbedConfig c;
    c.perturbations_per_point = p;
    c.ring_radius = 3;
    return c;
  }

  std::filesystem::path cache_dir_;
  Dataset base_;
};

TEST_F(PerturbedTest, CardinalityIsBaseTimesP) {
  PerturbedGroundSet ground_set(base_, config(20));
  EXPECT_EQ(ground_set.num_points(), 64u * 20u);
}

TEST_F(PerturbedTest, UtilitiesTrackBaseUtility) {
  PerturbedGroundSet ground_set(base_, config(20));
  for (NodeId v : {NodeId{0}, NodeId{25}, NodeId{640}, NodeId{1279}}) {
    const auto group = static_cast<std::size_t>(v) / 20;
    EXPECT_NEAR(ground_set.utility(v), base_.utilities[group], 0.05 + 1e-12);
    EXPECT_GE(ground_set.utility(v), 0.0);
  }
}

TEST_F(PerturbedTest, UtilityIsDeterministic) {
  PerturbedGroundSet ground_set(base_, config(20));
  EXPECT_EQ(ground_set.utility(123), ground_set.utility(123));
}

TEST_F(PerturbedTest, RingNeighborsHaveExpectedDegree) {
  PerturbedGroundSet ground_set(base_, config(20));
  std::vector<Edge> neighbors;
  // Non-leader point: exactly 2*radius ring neighbors.
  ground_set.neighbors(21, neighbors);  // group 1, offset 1
  EXPECT_EQ(neighbors.size(), 6u);
  EXPECT_EQ(ground_set.degree(21), 6u);
  // Leader point: ring + base-graph degree.
  ground_set.neighbors(20, neighbors);  // group 1, offset 0
  EXPECT_EQ(neighbors.size(), 6u + base_.graph.degree(1));
  EXPECT_EQ(ground_set.degree(20), neighbors.size());
}

TEST_F(PerturbedTest, NeighborhoodIsSymmetricWithEqualWeights) {
  PerturbedGroundSet ground_set(base_, config(20));
  std::vector<Edge> neighbors, reverse;
  for (NodeId v : {NodeId{0}, NodeId{5}, NodeId{20}, NodeId{399}, NodeId{1000}}) {
    ground_set.neighbors(v, neighbors);
    for (const Edge& e : neighbors) {
      ground_set.neighbors(e.neighbor, reverse);
      bool found = false;
      for (const Edge& r : reverse) {
        if (r.neighbor == v) {
          found = true;
          EXPECT_FLOAT_EQ(r.weight, e.weight);
        }
      }
      EXPECT_TRUE(found) << "edge " << v << " -> " << e.neighbor << " not symmetric";
    }
  }
}

TEST_F(PerturbedTest, NoSelfLoopsOrDuplicates) {
  PerturbedGroundSet ground_set(base_, config(20));
  std::vector<Edge> neighbors;
  for (NodeId v = 0; v < 200; ++v) {
    ground_set.neighbors(v, neighbors);
    std::map<NodeId, int> counts;
    for (const Edge& e : neighbors) {
      EXPECT_NE(e.neighbor, v);
      EXPECT_GE(e.weight, 0.0f);
      EXPECT_LT(e.neighbor, static_cast<NodeId>(ground_set.num_points()));
      ++counts[e.neighbor];
    }
    for (const auto& [id, count] : counts) EXPECT_EQ(count, 1) << "dup " << id;
  }
}

TEST_F(PerturbedTest, LeaderEdgesPreserveBaseGraph) {
  PerturbedGroundSet ground_set(base_, config(20));
  std::vector<Edge> neighbors;
  ground_set.neighbors(0, neighbors);  // leader of group 0
  std::size_t leader_edges = 0;
  for (const Edge& e : neighbors) {
    if (static_cast<std::size_t>(e.neighbor) % 20 == 0) {
      const auto target_group = static_cast<NodeId>(e.neighbor / 20);
      if (target_group != 0) {
        // Must correspond to a base edge with the same weight.
        bool found = false;
        for (const Edge& base_edge : base_.graph.neighbors(0)) {
          if (base_edge.neighbor == target_group) {
            found = true;
            EXPECT_FLOAT_EQ(base_edge.weight, e.weight);
          }
        }
        EXPECT_TRUE(found);
        ++leader_edges;
      }
    }
  }
  EXPECT_EQ(leader_edges, base_.graph.degree(0));
}

TEST_F(PerturbedTest, DisablingLeaderEdgesRemovesThem) {
  auto c = config(20);
  c.connect_group_leaders = false;
  PerturbedGroundSet ground_set(base_, c);
  std::vector<Edge> neighbors;
  ground_set.neighbors(0, neighbors);
  EXPECT_EQ(neighbors.size(), 6u);
}

TEST_F(PerturbedTest, MaterializedBytesScaleWithP) {
  PerturbedGroundSet small(base_, config(20));
  PerturbedGroundSet large(base_, config(200));
  EXPECT_GT(large.bytes_if_materialized(), 9 * small.bytes_if_materialized());
}

TEST_F(PerturbedTest, RejectsInvalidConfig) {
  PerturbedConfig c;
  c.perturbations_per_point = 0;
  EXPECT_THROW(PerturbedGroundSet(base_, c), std::invalid_argument);
  c.perturbations_per_point = 6;
  c.ring_radius = 3;  // 2*radius == P: ring would wrap
  EXPECT_THROW(PerturbedGroundSet(base_, c), std::invalid_argument);
}

}  // namespace
}  // namespace subsel::data
