// End-to-end integration: datasets -> graph -> bounding -> distributed greedy
// -> scoring, plus the larger-than-memory virtual dataset path and the
// committed golden out-of-core fixture (tests/golden/).
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>

#include "../testing/temp_dir.h"
#include "api/solver_registry.h"
#include "baselines/baselines.h"
#include "beam/beam_scoring.h"
#include "core/normalization.h"
#include "core/selection_pipeline.h"
#include "data/datasets.h"
#include "data/dataset_io.h"
#include "data/perturbed.h"
#include "graph/disk_ground_set.h"
#include "dataflow/transforms.h"

namespace subsel {
namespace {

class EndToEndTest : public ::testing::Test {
 protected:
  void SetUp() override {
    cache_dir_ = testing::process_temp_path("subsel_e2e_test");
    std::filesystem::create_directories(cache_dir_);
    setenv("SUBSEL_CACHE_DIR", cache_dir_.c_str(), 1);
  }
  void TearDown() override {
    unsetenv("SUBSEL_CACHE_DIR");
    std::filesystem::remove_all(cache_dir_);
  }
  std::filesystem::path cache_dir_;
};

TEST_F(EndToEndTest, FullPipelineOnToyDataset) {
  const data::Dataset dataset = data::toy_dataset(600, 10, 33);
  const auto ground_set = dataset.ground_set();
  const auto params = core::ObjectiveParams::from_alpha(0.9);
  const core::PairwiseKernel kernel(ground_set, params);
  const std::size_t k = 60;

  core::SelectionPipelineConfig config;
  config.use_bounding = true;
  config.bounding.sampling = core::BoundingSampling::kUniform;
  config.bounding.sample_fraction = 0.3;
  config.greedy.num_machines = 8;
  config.greedy.num_rounds = 4;

  const auto result = core::select_subset(kernel, k, config);
  EXPECT_EQ(result.selected.size(), k);

  // Compare against centralized greedy and random floor via normalization.
  const auto centralized =
      core::centralized_greedy(dataset.graph, dataset.utilities, params, k);
  const auto random = baselines::random_selection(kernel, k, 3);
  core::ScoreNormalizer normalizer(centralized.objective,
                                   {result.objective, random.objective});
  const double score = normalizer.normalize(result.objective);
  EXPECT_GT(score, 80.0);  // near-centralized quality, Figure 4's regime
  EXPECT_GT(score, normalizer.normalize(random.objective));
}

TEST_F(EndToEndTest, DistributedScoringAgreesWithLocalScoring) {
  const data::Dataset dataset = data::toy_dataset(400, 8, 34);
  const auto ground_set = dataset.ground_set();
  const auto params = core::ObjectiveParams::from_alpha(0.9);

  core::SelectionPipelineConfig config;
  config.greedy.num_machines = 4;
  config.greedy.num_rounds = 2;
  const auto result =
      core::select_subset(core::PairwiseKernel(ground_set, params), 40, config);

  dataflow::PipelineOptions options;
  options.num_shards = 16;
  dataflow::Pipeline pipeline(options);
  const double distributed_score =
      beam::beam_score(pipeline, ground_set, result.selected, params);
  EXPECT_NEAR(distributed_score, result.objective,
              1e-8 * (1.0 + std::abs(result.objective)));
}

TEST_F(EndToEndTest, LargerThanMemoryVirtualDatasetPipeline) {
  // 64 base points x 200 perturbations = 12.8k virtual points, never
  // materialized. Exercises bounding + distributed greedy through the
  // GroundSet interface exactly as the 13B run would.
  const data::Dataset base = data::toy_dataset(64, 4, 35);
  data::PerturbedConfig perturbed_config;
  perturbed_config.perturbations_per_point = 200;
  const data::PerturbedGroundSet ground_set(base, perturbed_config);
  ASSERT_EQ(ground_set.num_points(), 12'800u);
  const core::PairwiseKernel kernel(ground_set, core::ObjectiveParams::from_alpha(0.9));

  core::SelectionPipelineConfig config;
  config.use_bounding = true;
  config.bounding.sampling = core::BoundingSampling::kUniform;
  config.bounding.sample_fraction = 0.3;
  config.greedy.num_machines = 8;
  config.greedy.num_rounds = 2;

  const std::size_t k = 1280;  // 10 %
  const auto result = core::select_subset(kernel, k, config);
  EXPECT_EQ(result.selected.size(), k);
  std::set<core::NodeId> unique(result.selected.begin(), result.selected.end());
  EXPECT_EQ(unique.size(), k);

  // Quality sanity: beat random selection.
  const auto random = baselines::random_selection(kernel, k, 5);
  EXPECT_GT(result.objective, random.objective);
}

TEST_F(EndToEndTest, GreeDiMergeNeedsMoreMemoryThanMultiRoundPartitions) {
  // The motivating systems comparison: GreeDi's merge machine must hold
  // min(m*k, |V|) candidates — for a 50 % subset that degenerates to the
  // ENTIRE ground set on one machine (each partition of |V|/m = 100 points
  // returns all of them when k > 100), while the multi-round algorithm's
  // per-partition peak stays near |V|/m.
  const data::Dataset dataset = data::toy_dataset(800, 10, 36);
  const auto ground_set = dataset.ground_set();
  const core::PairwiseKernel kernel(ground_set, core::ObjectiveParams::from_alpha(0.9));
  const std::size_t k = 400;  // 50 % subset: merge holds min(8*400, |V|) = |V|

  baselines::GreeDiConfig greedi_config;
  greedi_config.num_machines = 8;
  const auto greedi_result = baselines::greedi(kernel, k, greedi_config);

  core::DistributedGreedyConfig dist_config;
  dist_config.num_machines = 8;
  dist_config.num_rounds = 4;
  const auto dist_result = core::distributed_greedy(kernel, k, dist_config);

  std::size_t dist_peak = 0;
  for (const auto& round : dist_result.rounds) {
    dist_peak = std::max(dist_peak, round.peak_partition_bytes);
  }
  EXPECT_EQ(greedi_result.merge_candidates, 800u);  // merge holds all of |V|
  EXPECT_LT(dist_peak, greedi_result.merge_bytes);
  // And quality stays comparable (within 10 % of GreeDi's).
  EXPECT_GT(dist_result.objective, 0.9 * greedi_result.objective);
}

TEST_F(EndToEndTest, AlphaSweepChangesSelectionCharacter) {
  // Lower alpha emphasizes diversity: selected subsets should overlap less
  // with the pure-utility top-k.
  const data::Dataset dataset = data::toy_dataset(500, 10, 37);
  const std::size_t k = 50;

  auto top_utility = [&] {
    std::vector<core::NodeId> ids(dataset.size());
    for (std::size_t i = 0; i < ids.size(); ++i) ids[i] = static_cast<core::NodeId>(i);
    std::sort(ids.begin(), ids.end(), [&](core::NodeId a, core::NodeId b) {
      return dataset.utilities[static_cast<std::size_t>(a)] >
             dataset.utilities[static_cast<std::size_t>(b)];
    });
    ids.resize(k);
    return std::set<core::NodeId>(ids.begin(), ids.end());
  }();

  auto overlap_with_topk = [&](double alpha) {
    const auto result = core::centralized_greedy(
        dataset.graph, dataset.utilities, core::ObjectiveParams::from_alpha(alpha), k);
    std::size_t overlap = 0;
    for (core::NodeId v : result.selected) overlap += top_utility.count(v);
    return overlap;
  };

  EXPECT_GE(overlap_with_topk(0.99), overlap_with_topk(0.1));
}

#ifdef SUBSEL_GOLDEN_DIR
TEST_F(EndToEndTest, GoldenOutOfCoreFixtureHasNotDrifted) {
  // The committed fixture (tests/golden/toy600[.graph], written by
  // SimilarityGraph::save / save_dataset at fixture-generation time) is
  // selected out-of-core with pinned parameters; ids AND objective must
  // match the committed expectations exactly. A failure here means the
  // on-disk format, the sharded cache, or the solver's selections silently
  // drifted — version the format (and regenerate the expectations
  // deliberately) instead of shrugging.
  const std::string golden = SUBSEL_GOLDEN_DIR;
  auto scalars = data::load_dataset_scalars(golden + "/toy600");
  graph::DiskGroundSetConfig cache;
  cache.block_edges = 256;
  cache.max_cached_blocks = 8;
  cache.num_shards = 4;
  const graph::DiskGroundSet ground_set(golden + "/toy600.graph",
                                        std::move(scalars.utilities), cache);

  api::SelectionRequest request;
  request.ground_set = &ground_set;
  request.k = 60;
  request.objective = core::ObjectiveParams::from_alpha(0.9);
  request.seed = 23;
  request.solver = "distributed-greedy";
  request.distributed.num_machines = 6;
  request.distributed.num_rounds = 4;
  request.distributed.prefetch_depth = 2;
  const api::SelectionReport report = api::select(request);

  const auto expected_ids = data::load_subset(golden + "/expected_subset.ids");
  EXPECT_EQ(report.selected, expected_ids);

  double expected_objective = 0.0;
  std::ifstream objective_file(golden + "/expected_objective.txt");
  ASSERT_TRUE(objective_file >> expected_objective);
  EXPECT_NEAR(report.objective, expected_objective,
              1e-9 * (1.0 + std::abs(expected_objective)));

  ASSERT_TRUE(report.disk_cache.has_value());
  EXPECT_GT(report.disk_cache->misses + report.disk_cache->prefetch_loaded, 0u)
      << "the golden run must actually page from disk";
  EXPECT_LE(report.disk_cache->resident_blocks_high_water,
            cache.max_cached_blocks);
}
#endif  // SUBSEL_GOLDEN_DIR

TEST_F(EndToEndTest, DiskCheckpointFaultToleranceCompose) {
  // All the operational features at once: a disk-resident adjacency, a
  // checkpointed greedy run preempted twice, and a final dataflow re-score
  // on a lossy cluster — the result must equal the plain in-memory path.
  const auto scratch = testing::process_temp_path("subsel_compose");
  std::filesystem::create_directories(scratch);
  const std::string data_path = (scratch / "data").string();

  const data::Dataset dataset = data::toy_dataset(1200, 16, 53);
  data::save_dataset(dataset, data_path);

  auto scalars = data::load_dataset_scalars(data_path);
  graph::DiskGroundSetConfig cache;
  cache.block_edges = 512;
  cache.max_cached_blocks = 8;
  const graph::DiskGroundSet disk(data_path + ".graph",
                                  std::move(scalars.utilities), cache);
  const auto params = core::ObjectiveParams::from_alpha(0.9);
  const core::PairwiseKernel disk_kernel(disk, params);

  core::DistributedGreedyConfig config;
  config.num_machines = 6;
  config.num_rounds = 5;
  config.checkpoint_file = (scratch / "run.ckpt").string();
  config.stop_after_round = 2;

  auto result = core::distributed_greedy(disk_kernel, 120, config);
  EXPECT_TRUE(result.preempted);
  result = core::distributed_greedy(disk_kernel, 120, config);  // rounds 3-4
  EXPECT_TRUE(result.preempted);
  config.stop_after_round = 0;
  result = core::distributed_greedy(disk_kernel, 120, config);  // finish
  EXPECT_FALSE(result.preempted);
  EXPECT_EQ(result.selected.size(), 120u);

  // Reference: in-memory, no checkpointing.
  const auto memory_ground_set = dataset.ground_set();
  const core::PairwiseKernel memory_kernel(memory_ground_set, params);
  core::DistributedGreedyConfig plain = config;
  plain.checkpoint_file.clear();
  const auto reference = core::distributed_greedy(memory_kernel, 120, plain);
  EXPECT_EQ(result.selected, reference.selected);

  // Re-score through a lossy dataflow cluster.
  dataflow::PipelineOptions options;
  options.num_shards = 16;
  options.shard_failure_probability = 0.2;
  options.max_shard_attempts = 10;
  dataflow::Pipeline pipeline(options);
  const double distributed_score =
      beam::beam_score(pipeline, disk, result.selected, params);
  EXPECT_NEAR(distributed_score, memory_kernel.objective().evaluate(result.selected),
              1e-9);
  EXPECT_GT(pipeline.counter("shard_retries"), 0u);

  std::filesystem::remove_all(scratch);
}

}  // namespace
}  // namespace subsel
