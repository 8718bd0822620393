// Randomized differential suite: every registered solver crossed with every
// registered objective must produce IDENTICAL selections and objective
// values on a DiskGroundSet and on the materialized InMemoryGroundSet over
// the same seeded random graphs — including under tiny cache budgets (every
// read evicts) and the single-block pathological configuration (one shard,
// one resident block). The disk engine is a pure serving layer; any
// divergence is a bug in it, never acceptable drift.
#include <gtest/gtest.h>

#include <filesystem>
#include <memory>

#include "../testing/temp_dir.h"
#include "../testing/test_instances.h"
#include "api/objective_registry.h"
#include "api/solver_registry.h"
#include "graph/disk_ground_set.h"

namespace subsel::graph {
namespace {

using subsel::testing::Instance;
using subsel::testing::random_instance;

struct CacheCase {
  const char* name;
  DiskGroundSetConfig config;
};

/// Default, forced-eviction, and single-block cache geometries: the paging
/// behavior must never leak into results.
const CacheCase kCacheCases[] = {
    {"default", {}},
    // Tiny blocks + tiny budget: nearly every neighborhood read crosses
    // blocks and evicts; striped across a handful of shards.
    {"tiny-forced-eviction", {/*block_edges=*/16, /*max_cached_blocks=*/4,
                              /*num_shards=*/2}},
    // The pathological floor: one shard, one mutex, one resident block.
    {"single-block", {/*block_edges=*/64, /*max_cached_blocks=*/1,
                      /*num_shards=*/1}},
};

class DiskMemoryEquivalenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = testing::process_temp_path("subsel_disk_equiv_test");
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::filesystem::path dir_;
};

/// Builds the request every cell of the matrix runs; mirrors the objective
/// matrix in bench/micro_core.cpp (bounding is disabled for solvers whose
/// bounding stage the objective cannot support, so every supportable cell
/// actually runs).
api::SelectionRequest base_request(const GroundSet& ground_set,
                                   const std::string& solver,
                                   const std::string& objective) {
  api::SelectionRequest request;
  request.ground_set = &ground_set;
  request.k = ground_set.num_points() / 10;
  request.objective_name = objective;
  request.objective = core::ObjectiveParams::from_alpha(0.9);
  request.seed = 71;
  request.solver = solver;
  request.distributed.num_machines = 4;
  request.distributed.num_rounds = 3;
  return request;
}

TEST_F(DiskMemoryEquivalenceTest, EverySolverEveryObjectiveEveryCacheGeometry) {
  const Instance instance = random_instance(320, 6, 2027);
  const auto memory_set = instance.ground_set();
  const std::string graph_path = (dir_ / "equiv.graph").string();
  instance.graph.save(graph_path);

  const auto solvers = api::SolverRegistry::instance().list();
  const auto objectives = api::ObjectiveRegistry::instance().list();
  ASSERT_GE(solvers.size(), 10u);
  ASSERT_GE(objectives.size(), 3u);

  std::size_t cells_run = 0;
  for (const CacheCase& cache_case : kCacheCases) {
    const DiskGroundSet disk_set(graph_path, instance.utilities,
                                 cache_case.config);
    for (const auto& objective : objectives) {
      for (const auto& solver : solvers) {
        api::SelectionRequest request =
            base_request(memory_set, solver.name, objective.name);
        if (solver.caps.bounding_stage && !objective.caps.utility_bounds) {
          request.bounding.enabled = false;
        }
        if (!api::incompatibility_reason(solver.caps, objective.caps,
                                         request.bounding.enabled)
                 .empty()) {
          continue;  // validated rejection, covered by the registry tests
        }
        SCOPED_TRACE(std::string(cache_case.name) + " / " + solver.name +
                     " / " + objective.name);

        const api::SelectionReport from_memory = api::select(request);
        request.ground_set = &disk_set;
        const api::SelectionReport from_disk = api::select(request);

        EXPECT_EQ(from_disk.selected, from_memory.selected);
        EXPECT_EQ(from_disk.objective, from_memory.objective);
        EXPECT_EQ(from_disk.solver_objective, from_memory.solver_objective);
        // The out-of-core run must say so in its report; the in-memory run
        // must not.
        EXPECT_TRUE(from_disk.disk_cache.has_value());
        EXPECT_FALSE(from_memory.disk_cache.has_value());
        ++cells_run;
      }
    }
    // The constrained geometries must actually have paged: every block
    // fetch beyond the budget is an eviction.
    const DiskCacheStats stats = disk_set.stats();
    EXPECT_GT(stats.misses + stats.prefetch_loaded, 0u);
    EXPECT_LE(stats.resident_blocks_high_water,
              cache_case.config.max_cached_blocks);
  }
  // 3 cache geometries x (most of) solvers x objectives; keep an absolute
  // floor so a silently-shrinking registry fails loudly.
  EXPECT_GE(cells_run, 3u * 25u);
}

TEST_F(DiskMemoryEquivalenceTest, MultipleSeededGraphsUnderForcedEviction) {
  for (const std::uint64_t seed : {501ull, 502ull, 503ull}) {
    const Instance instance = random_instance(240, 5, seed);
    const auto memory_set = instance.ground_set();
    const std::string graph_path =
        (dir_ / ("graph_" + std::to_string(seed))).string();
    instance.graph.save(graph_path);

    DiskGroundSetConfig cache;
    cache.block_edges = 32;
    cache.max_cached_blocks = 3;
    cache.num_shards = 3;
    const DiskGroundSet disk_set(graph_path, instance.utilities, cache);

    // The paper's deployed composition: bounding + multi-round greedy.
    api::SelectionRequest request =
        base_request(memory_set, "pipeline", "pairwise");
    request.seed = seed;
    const api::SelectionReport from_memory = api::select(request);
    request.ground_set = &disk_set;
    const api::SelectionReport from_disk = api::select(request);

    EXPECT_EQ(from_disk.selected, from_memory.selected) << "seed " << seed;
    EXPECT_EQ(from_disk.objective, from_memory.objective) << "seed " << seed;
    EXPECT_GT(disk_set.stats().misses, 0u);
  }
}

TEST_F(DiskMemoryEquivalenceTest, ShardedEngineMatchesInMemoryGraphEdgeForEdge) {
  // The sharded engine vs the in-memory SimilarityGraph it was saved from,
  // edge for edge, through both read paths, under a budget that evicts.
  const Instance instance = random_instance(300, 6, 904);
  const std::string graph_path = (dir_ / "reference.graph").string();
  instance.graph.save(graph_path);

  DiskGroundSetConfig cache;
  cache.block_edges = 128;
  cache.max_cached_blocks = 6;
  cache.num_shards = 4;
  const DiskGroundSet sharded(graph_path, instance.utilities, cache);

  ASSERT_EQ(sharded.num_points(), instance.graph.num_nodes());
  std::vector<Edge> sharded_edges, scratch;
  for (NodeId v = 0; v < static_cast<NodeId>(sharded.num_points()); ++v) {
    const auto expected_span = instance.graph.neighbors(v);
    const std::vector<Edge> expected(expected_span.begin(), expected_span.end());
    sharded.neighbors(v, sharded_edges);
    ASSERT_EQ(sharded_edges, expected) << "node " << v;
    // The zero-copy span must agree with the copying path.
    const auto span = sharded.neighbors_span(v, scratch);
    ASSERT_EQ(std::vector<Edge>(span.begin(), span.end()), expected)
        << "node " << v;
    EXPECT_EQ(sharded.utility(v), instance.utilities[static_cast<std::size_t>(v)]);
  }
  EXPECT_GT(sharded.stats().misses, 0u);
}

}  // namespace
}  // namespace subsel::graph
