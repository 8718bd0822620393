#include "core/selection_pipeline.h"

#include <gtest/gtest.h>

#include <set>
#include <span>

#include "../testing/test_instances.h"
#include "core/facility_location_kernel.h"

namespace subsel::core {
namespace {

using testing::Instance;
using testing::random_instance;

SelectionPipelineConfig make_config(bool use_bounding) {
  SelectionPipelineConfig config;
  config.use_bounding = use_bounding;
  config.bounding.sampling = BoundingSampling::kUniform;
  config.bounding.sample_fraction = 0.3;
  config.greedy.num_machines = 4;
  config.greedy.num_rounds = 2;
  return config;
}

TEST(SelectionPipeline, ReturnsExactlyK) {
  const Instance instance = random_instance(200, 5, 301);
  const auto ground_set = instance.ground_set();
  const PairwiseKernel kernel(ground_set, ObjectiveParams::from_alpha(0.9));
  for (bool use_bounding : {false, true}) {
    const auto result = select_subset(kernel, 30, make_config(use_bounding));
    EXPECT_EQ(result.selected.size(), 30u);
    std::set<NodeId> unique(result.selected.begin(), result.selected.end());
    EXPECT_EQ(unique.size(), 30u);
    EXPECT_EQ(result.bounding.has_value(), use_bounding);
  }
}

TEST(SelectionPipeline, BoundingStatsAreReported) {
  const Instance instance = random_instance(300, 6, 302);
  const auto ground_set = instance.ground_set();
  const PairwiseKernel kernel(ground_set, ObjectiveParams::from_alpha(0.9));
  const auto result = select_subset(kernel, 30, make_config(true));
  ASSERT_TRUE(result.bounding.has_value());
  EXPECT_GE(result.bounding->shrink_rounds, 1u);
  EXPECT_EQ(result.bounding->included + result.bounding->k_remaining, 30u);
  EXPECT_GE(result.bounding_seconds, 0.0);
}

TEST(SelectionPipeline, CompleteBoundingSkipsGreedy) {
  // Isolated points: exact bounding solves the whole instance.
  Instance instance;
  instance.graph =
      graph::SimilarityGraph::from_lists(std::vector<graph::NeighborList>(20));
  instance.utilities.resize(20);
  for (std::size_t i = 0; i < 20; ++i) instance.utilities[i] = static_cast<double>(i);
  const auto ground_set = instance.ground_set();
  const PairwiseKernel kernel(ground_set, ObjectiveParams::from_alpha(0.9));

  auto config = make_config(true);
  config.bounding.sampling = BoundingSampling::kNone;
  const auto result = select_subset(kernel, 5, config);
  ASSERT_TRUE(result.bounding.has_value());
  EXPECT_TRUE(result.bounding->complete());
  EXPECT_TRUE(result.greedy_rounds.empty());
  EXPECT_EQ(result.selected, (std::vector<NodeId>{15, 16, 17, 18, 19}));
}

TEST(SelectionPipeline, KernelParamsDriveBothStages) {
  // The kernel is the run's only objective: bounding and greedy both run
  // under its α, and f(S) is reported under it.
  const Instance instance = random_instance(100, 4, 303);
  const auto ground_set = instance.ground_set();
  const PairwiseKernel kernel(ground_set, ObjectiveParams::from_alpha(0.5));
  const auto result = select_subset(kernel, 10, make_config(true));
  PairwiseObjective objective(ground_set, ObjectiveParams::from_alpha(0.5));
  EXPECT_NEAR(result.objective, objective.evaluate(result.selected), 1e-9);
}

TEST(SelectionPipeline, GreedyOnlyRunSelectsWhatDistributedGreedySelects) {
  // Nothing in the stage configs can name another objective: a
  // facility-location pipeline run with bounding off is exactly the
  // distributed greedy under the same kernel, not a pairwise run.
  const Instance instance = random_instance(400, 6, 304);
  const auto ground_set = instance.ground_set();
  const FacilityLocationKernel kernel(ground_set, {});
  const SelectionPipelineConfig config = make_config(false);
  const auto pipeline = select_subset(kernel, 40, config);
  const auto greedy = distributed_greedy(kernel, 40, config.greedy);
  EXPECT_EQ(pipeline.selected, greedy.selected);
  EXPECT_EQ(pipeline.objective, greedy.objective);
  EXPECT_EQ(pipeline.objective,
            kernel.evaluate(std::span<const NodeId>(pipeline.selected)));

  const PairwiseKernel pairwise(ground_set, {});
  EXPECT_NE(select_subset(pairwise, 40, config).selected, pipeline.selected);
}

TEST(SelectionPipeline, BoundingRejectsKernelsWithoutPairwiseParams) {
  const Instance instance = random_instance(60, 4, 305);
  const auto ground_set = instance.ground_set();
  const FacilityLocationKernel kernel(ground_set, {});
  EXPECT_THROW(select_subset(kernel, 10, make_config(true)), std::invalid_argument);
  EXPECT_THROW(bound(kernel, 10, BoundingConfig{}), std::invalid_argument);
}

TEST(SelectionPipeline, ExpiredDeadlineDegradesBothStagesButStillSelectsK) {
  // Bounding stops at a pass boundary (its decisions are monotone, so
  // whatever it fixed stays sound) and the greedy falls through to the
  // final subsample: the caller gets a valid size-k selection, flagged.
  const Instance instance = random_instance(200, 5, 320);
  const auto ground_set = instance.ground_set();
  const PairwiseKernel kernel(ground_set, ObjectiveParams::from_alpha(0.9));
  auto config = make_config(true);
  config.bounding.deadline = Deadline::after_ms(0);
  config.greedy.deadline = Deadline::after_ms(0);
  const auto result = select_subset(kernel, 20, config);
  EXPECT_TRUE(result.degraded);
  EXPECT_FALSE(result.degraded_reason.empty());
  EXPECT_EQ(result.selected.size(), 20u);
  EXPECT_NEAR(result.objective, kernel.objective().evaluate(result.selected), 1e-9);
}

TEST(SelectionPipeline, BoundingImprovesOrMatchesPureGreedyQuality) {
  // Statistical check over seeds; bounding should not systematically hurt.
  double with_bounding = 0.0, without = 0.0;
  for (std::uint64_t seed : {311, 312, 313, 314}) {
    const Instance instance = random_instance(250, 6, seed);
    const auto ground_set = instance.ground_set();
    const PairwiseKernel kernel(ground_set, ObjectiveParams::from_alpha(0.9));
    with_bounding += select_subset(kernel, 25, make_config(true)).objective;
    without += select_subset(kernel, 25, make_config(false)).objective;
  }
  EXPECT_GE(with_bounding, 0.95 * without);
}

}  // namespace
}  // namespace subsel::core
