// The dataflow implementation of the multi-round distributed greedy
// (Section 4.4): validity, determinism, quality parity with the in-memory
// implementation, bounding-state handoff, and the per-worker memory budget.
#include "beam/beam_greedy.h"

#include <gtest/gtest.h>

#include <limits>
#include <set>

#include "../testing/naive_greedy.h"
#include "../testing/test_instances.h"
#include "core/bounding.h"
#include "dataflow/transforms.h"

namespace subsel::beam {
namespace {

using core::NodeId;
using subsel::testing::Instance;
using subsel::testing::random_instance;

dataflow::Pipeline make_pipeline(std::size_t shards = 16) {
  dataflow::PipelineOptions options;
  options.num_shards = shards;
  return dataflow::Pipeline(options);
}

BeamGreedyConfig make_config(std::size_t machines, std::size_t rounds,
                             bool adaptive = false, std::uint64_t seed = 61) {
  BeamGreedyConfig config;
  config.num_machines = machines;
  config.num_rounds = rounds;
  config.adaptive_partitioning = adaptive;
  config.seed = seed;
  return config;
}

TEST(BeamGreedy, SelectsExactlyKUniqueIds) {
  const Instance instance = random_instance(400, 5, 901);
  const auto ground_set = instance.ground_set();
  const core::PairwiseKernel kernel(ground_set, core::ObjectiveParams::from_alpha(0.9));
  auto pipeline = make_pipeline();
  const auto result =
      beam_distributed_greedy(pipeline, kernel, 40, make_config(8, 4));
  EXPECT_EQ(result.selected.size(), 40u);
  std::set<NodeId> unique(result.selected.begin(), result.selected.end());
  EXPECT_EQ(unique.size(), 40u);
  EXPECT_TRUE(std::is_sorted(result.selected.begin(), result.selected.end()));
}

TEST(BeamGreedy, RejectsNonPositiveGamma) {
  const Instance instance = random_instance(60, 4, 900);
  const auto ground_set = instance.ground_set();
  const core::PairwiseKernel kernel(ground_set, core::ObjectiveParams::from_alpha(0.9));
  for (const double gamma : {0.0, -1.0, std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity()}) {
    auto pipeline = make_pipeline();
    auto config = make_config(4, 2);
    config.delta_gamma = gamma;
    EXPECT_THROW(beam_distributed_greedy(pipeline, kernel, 6, config),
                 std::invalid_argument)
        << "gamma " << gamma;
  }
}

TEST(BeamGreedy, DeterministicGivenSeed) {
  const Instance instance = random_instance(300, 4, 902);
  const auto ground_set = instance.ground_set();
  const core::PairwiseKernel kernel(ground_set, core::ObjectiveParams::from_alpha(0.9));
  auto p1 = make_pipeline();
  auto p2 = make_pipeline(64);  // shard count must not affect the result
  const auto a = beam_distributed_greedy(p1, kernel, 30, make_config(8, 3));
  const auto b = beam_distributed_greedy(p2, kernel, 30, make_config(8, 3));
  EXPECT_EQ(a.selected, b.selected);
  EXPECT_EQ(a.objective, b.objective);
}

TEST(BeamGreedy, QualityMatchesInMemoryImplementation) {
  // Same algorithm, different partition randomness: expect parity within a
  // few percent, averaged over seeds.
  const Instance instance = random_instance(600, 6, 903);
  const auto ground_set = instance.ground_set();
  const core::PairwiseKernel kernel(ground_set, core::ObjectiveParams::from_alpha(0.9));
  double beam_total = 0.0, core_total = 0.0;
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    auto pipeline = make_pipeline();
    beam_total += beam_distributed_greedy(pipeline, kernel, 60,
                                          make_config(8, 4, false, seed))
                      .objective;
    core::DistributedGreedyConfig config = make_config(8, 4, false, seed);
    core_total += core::distributed_greedy(kernel, 60, config).objective;
  }
  EXPECT_NEAR(beam_total / core_total, 1.0, 0.05);
}

TEST(BeamGreedy, SingleMachineSingleRoundMatchesCentralizedQuality) {
  const Instance instance = random_instance(200, 4, 904);
  const auto ground_set = instance.ground_set();
  const core::PairwiseKernel kernel(ground_set, core::ObjectiveParams::from_alpha(0.9));
  auto pipeline = make_pipeline();
  const auto result =
      beam_distributed_greedy(pipeline, kernel, 20, make_config(1, 1));
  const auto centralized = subsel::testing::naive_greedy(kernel, 20);
  EXPECT_NEAR(result.objective, centralized.objective, 1e-9);
}

TEST(BeamGreedy, MoreRoundsDoNotHurtOnAverage) {
  const Instance instance = random_instance(500, 6, 905);
  const auto ground_set = instance.ground_set();
  const core::PairwiseKernel kernel(ground_set, core::ObjectiveParams::from_alpha(0.9));
  double single = 0.0, multi = 0.0;
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    auto p1 = make_pipeline();
    auto p2 = make_pipeline();
    single += beam_distributed_greedy(p1, kernel, 50,
                                      make_config(16, 1, false, seed))
                  .objective;
    multi += beam_distributed_greedy(p2, kernel, 50,
                                     make_config(16, 8, false, seed))
                 .objective;
  }
  EXPECT_GE(multi, single);
}

TEST(BeamGreedy, HonorsBoundingState) {
  const Instance instance = random_instance(150, 4, 906);
  const auto ground_set = instance.ground_set();
  const core::PairwiseKernel kernel(ground_set, core::ObjectiveParams::from_alpha(0.9));
  core::BoundingConfig bounding_config;
  bounding_config.sampling = core::BoundingSampling::kUniform;
  bounding_config.sample_fraction = 0.3;
  auto bounding = core::bound(kernel, 30, bounding_config);

  auto pipeline = make_pipeline();
  const auto result = beam_distributed_greedy(pipeline, kernel, 30,
                                              make_config(4, 2), &bounding.state);
  EXPECT_EQ(result.selected.size(), 30u);
  for (NodeId v : bounding.state.selected_ids()) {
    EXPECT_TRUE(std::binary_search(result.selected.begin(), result.selected.end(), v))
        << "bounding-selected point " << v << " missing";
  }
  for (NodeId v : result.selected) {
    EXPECT_FALSE(bounding.state.is_discarded(v))
        << "discarded point " << v << " re-selected";
  }
}

TEST(BeamGreedy, RoundStatsAreConsistent) {
  const Instance instance = random_instance(300, 4, 907);
  const auto ground_set = instance.ground_set();
  const core::PairwiseKernel kernel(ground_set, core::ObjectiveParams::from_alpha(0.9));
  auto pipeline = make_pipeline();
  const auto result =
      beam_distributed_greedy(pipeline, kernel, 30, make_config(8, 4));
  ASSERT_EQ(result.rounds.size(), 4u);
  EXPECT_EQ(result.rounds.front().input_size, 300u);
  for (std::size_t i = 0; i < result.rounds.size(); ++i) {
    EXPECT_EQ(result.rounds[i].round, i + 1);
    EXPECT_LE(result.rounds[i].output_size, result.rounds[i].input_size);
    EXPECT_GT(result.rounds[i].peak_partition_bytes, 0u);
    if (i > 0) {
      EXPECT_EQ(result.rounds[i].input_size, result.rounds[i - 1].output_size);
    }
  }
}

TEST(BeamGreedy, StaysWithinWorkerMemoryBudget) {
  // Budget sized for a partition, far below the whole instance: the run
  // must succeed and never exceed it.
  const Instance instance = random_instance(2000, 6, 908);
  const auto ground_set = instance.ground_set();
  const core::PairwiseKernel kernel(ground_set, core::ObjectiveParams::from_alpha(0.9));

  dataflow::PipelineOptions options;
  options.num_shards = 32;
  options.worker_memory_bytes = 64 * 1024;
  dataflow::Pipeline pipeline(options);

  const auto result =
      beam_distributed_greedy(pipeline, kernel, 200, make_config(16, 2));
  EXPECT_EQ(result.selected.size(), 200u);
  EXPECT_LE(pipeline.peak_shard_bytes(), 64u * 1024u);
}

TEST(BeamGreedy, AdaptivePartitioningReducesPartitions) {
  const Instance instance = random_instance(400, 5, 909);
  const auto ground_set = instance.ground_set();
  const core::PairwiseKernel kernel(ground_set, core::ObjectiveParams::from_alpha(0.9));
  auto pipeline = make_pipeline();
  const auto result =
      beam_distributed_greedy(pipeline, kernel, 20, make_config(16, 6, true));
  ASSERT_EQ(result.rounds.size(), 6u);
  EXPECT_GT(result.rounds.front().num_partitions, result.rounds.back().num_partitions);
  EXPECT_EQ(result.rounds.back().num_partitions, 1u);
}

TEST(BeamGreedy, CancellationMidRunYieldsCleanPreemption) {
  const Instance instance = random_instance(300, 4, 911);
  const auto ground_set = instance.ground_set();
  const core::PairwiseKernel kernel(ground_set, core::ObjectiveParams::from_alpha(0.9));
  auto pipeline = make_pipeline();
  auto config = make_config(4, 5);
  config.progress = [&config](const ProgressEvent& event) {
    if (event.step >= 1) config.cancel.request_stop();
  };
  const auto cancelled =
      beam_distributed_greedy(pipeline, kernel, 30, config);
  EXPECT_TRUE(cancelled.preempted);
  EXPECT_TRUE(cancelled.selected.empty());
  EXPECT_EQ(cancelled.rounds.size(), 1u);

  // Re-armed, the same config completes and matches an undisturbed run.
  config.cancel.reset();
  config.progress = nullptr;
  auto pipeline2 = make_pipeline();
  const auto full = beam_distributed_greedy(pipeline2, kernel, 30, config);
  auto pipeline3 = make_pipeline();
  const auto undisturbed =
      beam_distributed_greedy(pipeline3, kernel, 30, make_config(4, 5));
  EXPECT_FALSE(full.preempted);
  EXPECT_EQ(full.selected, undisturbed.selected);
}

TEST(BeamGreedy, ZeroOpenBudgetReturnsBoundingSelection) {
  const Instance instance = random_instance(50, 3, 910);
  const auto ground_set = instance.ground_set();
  const core::PairwiseKernel kernel(ground_set, core::ObjectiveParams::from_alpha(0.9));
  core::SelectionState state(50);
  for (NodeId v = 0; v < 10; ++v) state.select(v);
  auto pipeline = make_pipeline();
  const auto result =
      beam_distributed_greedy(pipeline, kernel, 10, make_config(4, 2), &state);
  std::vector<NodeId> expected(10);
  for (NodeId v = 0; v < 10; ++v) expected[static_cast<std::size_t>(v)] = v;
  EXPECT_EQ(result.selected, expected);
}

}  // namespace
}  // namespace subsel::beam
