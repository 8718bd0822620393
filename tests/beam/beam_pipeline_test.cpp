// End-to-end dataflow selection (beam_select_subset): bounding decisions
// identical to the in-memory pipeline, quality parity, stage accounting, and
// the memory budget across all stages.
#include "beam/beam_pipeline.h"

#include <gtest/gtest.h>

#include <set>

#include "../testing/test_instances.h"
#include "core/facility_location_kernel.h"
#include "core/selection_pipeline.h"

namespace subsel::beam {
namespace {

using core::NodeId;
using subsel::testing::Instance;
using subsel::testing::random_instance;

core::SelectionPipelineConfig make_config() {
  core::SelectionPipelineConfig config;
  config.bounding.sampling = core::BoundingSampling::kUniform;
  config.bounding.sample_fraction = 0.3;
  config.greedy.num_machines = 8;
  config.greedy.num_rounds = 4;
  return config;
}

TEST(BeamPipeline, SelectsKUniquePointsAndScoresThem) {
  const Instance instance = random_instance(300, 5, 940);
  const auto ground_set = instance.ground_set();
  const core::PairwiseKernel kernel(ground_set, core::ObjectiveParams::from_alpha(0.9));
  dataflow::Pipeline pipeline;
  const auto result = beam_select_subset(pipeline, kernel, 30, make_config());
  EXPECT_EQ(result.selected.size(), 30u);
  std::set<NodeId> unique(result.selected.begin(), result.selected.end());
  EXPECT_EQ(unique.size(), 30u);

  EXPECT_NEAR(result.objective, kernel.objective().evaluate(result.selected), 1e-9);
}

TEST(BeamPipeline, BoundingDecisionsMatchInMemoryPipeline) {
  const Instance instance = random_instance(200, 5, 941);
  const auto ground_set = instance.ground_set();
  const core::PairwiseKernel kernel(ground_set, core::ObjectiveParams::from_alpha(0.9));
  dataflow::Pipeline pipeline;
  const auto config = make_config();

  const auto beam_result = beam_select_subset(pipeline, kernel, 20, config);
  const auto core_result = core::select_subset(kernel, 20, config);
  ASSERT_TRUE(beam_result.bounding.has_value());
  ASSERT_TRUE(core_result.bounding.has_value());
  EXPECT_EQ(beam_result.bounding->state.selected_ids(),
            core_result.bounding->state.selected_ids());
  EXPECT_EQ(beam_result.bounding->included, core_result.bounding->included);
  EXPECT_EQ(beam_result.bounding->excluded, core_result.bounding->excluded);
}

TEST(BeamPipeline, QualityParityWithInMemoryPipeline) {
  const Instance instance = random_instance(400, 6, 942);
  const auto ground_set = instance.ground_set();
  const core::PairwiseKernel kernel(ground_set, core::ObjectiveParams::from_alpha(0.9));
  double beam_total = 0.0, core_total = 0.0;
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    auto config = make_config();
    config.greedy.seed = seed;
    dataflow::Pipeline pipeline;
    beam_total += beam_select_subset(pipeline, kernel, 40, config).objective;
    core_total += core::select_subset(kernel, 40, config).objective;
  }
  EXPECT_NEAR(beam_total / core_total, 1.0, 0.05);
}

TEST(BeamPipeline, CompleteBoundingSkipsGreedy) {
  // Isolated points: bounding solves the instance, greedy must not run.
  Instance instance;
  instance.graph =
      graph::SimilarityGraph::from_lists(std::vector<graph::NeighborList>(30));
  instance.utilities.resize(30);
  for (std::size_t i = 0; i < 30; ++i) instance.utilities[i] = static_cast<double>(i);
  const auto ground_set = instance.ground_set();
  const core::PairwiseKernel kernel(ground_set, core::ObjectiveParams::from_alpha(0.9));

  dataflow::Pipeline pipeline;
  auto config = make_config();
  config.bounding.sampling = core::BoundingSampling::kNone;
  const auto result = beam_select_subset(pipeline, kernel, 5, config);
  ASSERT_TRUE(result.bounding.has_value());
  EXPECT_TRUE(result.bounding->complete());
  EXPECT_TRUE(result.greedy_rounds.empty());
  EXPECT_EQ(result.selected, (std::vector<NodeId>{25, 26, 27, 28, 29}));
}

TEST(BeamPipeline, DisabledBoundingRunsGreedyOnly) {
  const Instance instance = random_instance(150, 4, 943);
  const auto ground_set = instance.ground_set();
  const core::PairwiseKernel kernel(ground_set, core::ObjectiveParams::from_alpha(0.9));
  dataflow::Pipeline pipeline;
  auto config = make_config();
  config.use_bounding = false;
  const auto result = beam_select_subset(pipeline, kernel, 15, config);
  EXPECT_FALSE(result.bounding.has_value());
  EXPECT_FALSE(result.greedy_rounds.empty());
  EXPECT_EQ(result.selected.size(), 15u);
}

TEST(BeamPipeline, ExpiredDeadlineDegradesButStillSelectsK) {
  // Same contract as the in-memory pipeline: the bounding pre-pass stops at
  // a pass boundary, the greedy falls through to the final subsample, and
  // the caller still gets a valid size-k selection flagged degraded.
  const Instance instance = random_instance(200, 5, 945);
  const auto ground_set = instance.ground_set();
  const core::PairwiseKernel kernel(ground_set, core::ObjectiveParams::from_alpha(0.9));
  dataflow::Pipeline pipeline;
  auto config = make_config();
  config.bounding.deadline = Deadline::after_ms(0);
  config.greedy.deadline = Deadline::after_ms(0);
  const auto result = beam_select_subset(pipeline, kernel, 20, config);
  EXPECT_TRUE(result.degraded);
  EXPECT_FALSE(result.degraded_reason.empty());
  EXPECT_EQ(result.selected.size(), 20u);
  std::set<NodeId> unique(result.selected.begin(), result.selected.end());
  EXPECT_EQ(unique.size(), 20u);
}

TEST(BeamPipeline, RejectsKernelsTheJoinsCannotScoreOrBound) {
  // The Section 5 scoring and bounding joins exist for the pairwise form
  // only; another kernel is refused, bounding on or off.
  const Instance instance = random_instance(60, 4, 946);
  const auto ground_set = instance.ground_set();
  const core::FacilityLocationKernel kernel(ground_set, {});
  dataflow::Pipeline pipeline;
  auto config = make_config();
  config.use_bounding = false;
  EXPECT_THROW(beam_select_subset(pipeline, kernel, 10, config), std::invalid_argument);
  EXPECT_THROW(beam_bound(pipeline, kernel, 10, config.bounding), std::invalid_argument);
}

TEST(BeamPipeline, RunsUnderWorkerMemoryBudget) {
  const Instance instance = random_instance(1500, 6, 944);
  const auto ground_set = instance.ground_set();
  const core::PairwiseKernel kernel(ground_set, core::ObjectiveParams::from_alpha(0.9));
  dataflow::PipelineOptions options;
  options.num_shards = 64;
  options.worker_memory_bytes = 96 * 1024;
  dataflow::Pipeline pipeline(options);
  const auto result = beam_select_subset(pipeline, kernel, 150, make_config());
  EXPECT_EQ(result.selected.size(), 150u);
  EXPECT_LE(pipeline.peak_shard_bytes(), 96u * 1024u);
}

}  // namespace
}  // namespace subsel::beam
