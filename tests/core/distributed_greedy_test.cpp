#include "core/distributed_greedy.h"

#include <gtest/gtest.h>

#include <limits>
#include <set>

#include "../testing/test_instances.h"
#include "core/bounding.h"

namespace subsel::core {
namespace {

using testing::Instance;
using testing::random_instance;

DistributedGreedyConfig make_config(std::size_t machines, std::size_t rounds,
                                    bool adaptive, std::uint64_t seed = 23) {
  DistributedGreedyConfig config;
  config.num_machines = machines;
  config.num_rounds = rounds;
  config.adaptive_partitioning = adaptive;
  config.seed = seed;
  return config;
}

TEST(LinearDelta, SatisfiesBoundaryConstraint) {
  for (double gamma : {0.25, 0.5, 0.75, 1.0}) {
    // Last round must target exactly k (the Algorithm 6 constraint).
    EXPECT_EQ(linear_delta(1000, 8, 8, 100, gamma), 100u);
    EXPECT_EQ(linear_delta(1000, 1, 1, 5, gamma), 5u);
  }
}

TEST(LinearDelta, MonotonicallyDecreasesAcrossRounds) {
  std::size_t previous = 1000;
  for (std::size_t round = 1; round <= 8; ++round) {
    const std::size_t target = linear_delta(1000, 8, round, 100);
    EXPECT_LE(target, previous);
    EXPECT_GE(target, 100u);
    previous = target;
  }
}

TEST(LinearDelta, GammaScalesIntermediateTargets) {
  EXPECT_LT(linear_delta(1000, 8, 1, 100, 0.25), linear_delta(1000, 8, 1, 100, 1.0));
}

TEST(LinearDelta, TargetNeverExceedsTheGroundSet) {
  // γ > 1 asks for more points than exist; 1e300 would overflow the size_t
  // cast without the cap. The last round still targets exactly k.
  EXPECT_EQ(linear_delta(1000, 8, 1, 100, 2.0), 1000u);
  EXPECT_EQ(linear_delta(1000, 8, 1, 100, 1e300), 1000u);
  EXPECT_EQ(linear_delta(1000, 8, 8, 100, 1e300), 100u);
}

TEST(LinearDelta, RejectsNonPositiveGamma) {
  // γ lives in the round-loop config; both round loops refuse a γ that is
  // not a finite positive number before any round runs.
  const Instance instance = random_instance(60, 4, 200);
  const auto ground_set = instance.ground_set();
  const PairwiseKernel kernel(ground_set, ObjectiveParams::from_alpha(0.9));
  for (const double gamma : {0.0, -1.0, std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity()}) {
    auto config = make_config(4, 2, true);
    config.delta_gamma = gamma;
    EXPECT_THROW(distributed_greedy(kernel, 6, config), std::invalid_argument)
        << "gamma " << gamma;
  }
}

TEST(DistributedGreedy, ReturnsExactlyKDistinctPoints) {
  const Instance instance = random_instance(200, 5, 201);
  const auto ground_set = instance.ground_set();
  const PairwiseKernel kernel(ground_set, ObjectiveParams::from_alpha(0.9));
  for (std::size_t machines : {1u, 4u, 16u}) {
    for (std::size_t rounds : {1u, 4u}) {
      const auto result = distributed_greedy(kernel, 20,
                                             make_config(machines, rounds, false));
      EXPECT_EQ(result.selected.size(), 20u);
      std::set<NodeId> unique(result.selected.begin(), result.selected.end());
      EXPECT_EQ(unique.size(), 20u);
      EXPECT_TRUE(std::is_sorted(result.selected.begin(), result.selected.end()));
    }
  }
}

TEST(DistributedGreedy, SingleMachineSingleRoundEqualsCentralized) {
  const Instance instance = random_instance(100, 5, 202);
  const auto ground_set = instance.ground_set();
  const PairwiseKernel kernel(ground_set, ObjectiveParams::from_alpha(0.9));
  const auto params = ObjectiveParams::from_alpha(0.9);
  const auto distributed = distributed_greedy(kernel, 15, make_config(1, 1, false));
  const auto centralized =
      centralized_greedy(instance.graph, instance.utilities, params, 15);
  std::vector<NodeId> sorted = centralized.selected;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(distributed.selected, sorted);
  EXPECT_NEAR(distributed.objective, centralized.objective, 1e-9);
}

TEST(DistributedGreedy, ObjectiveMatchesEvaluation) {
  const Instance instance = random_instance(150, 4, 203);
  const auto ground_set = instance.ground_set();
  const PairwiseKernel kernel(ground_set, ObjectiveParams::from_alpha(0.9));
  const auto config = make_config(8, 3, true);
  const auto result = distributed_greedy(kernel, 30, config);
  EXPECT_NEAR(result.objective, kernel.objective().evaluate(result.selected), 1e-9);
}

TEST(DistributedGreedy, MoreRoundsDoNotHurtOnAverage) {
  // Figure 3's trend: averaged over seeds, 8 rounds beat 1 round for a small
  // subset with many partitions.
  const Instance instance = random_instance(600, 8, 204);
  const auto ground_set = instance.ground_set();
  const PairwiseKernel kernel(ground_set, ObjectiveParams::from_alpha(0.9));
  double single = 0.0, multi = 0.0;
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    single += distributed_greedy(kernel, 60,
                                 make_config(16, 1, false, 300 + seed))
                  .objective;
    multi += distributed_greedy(kernel, 60,
                                make_config(16, 8, false, 300 + seed))
                 .objective;
  }
  EXPECT_GE(multi, single);
}

TEST(DistributedGreedy, AdaptivePartitioningUsesFewerPartitionsOverTime) {
  // k (20) fits within one partition cap (ceil(400/16) = 25), so Alg. 6's
  // m_round = ceil(n_round / cap) reaches exactly 1 in the final round.
  const Instance instance = random_instance(400, 5, 205);
  const auto ground_set = instance.ground_set();
  const PairwiseKernel kernel(ground_set, ObjectiveParams::from_alpha(0.9));
  const auto result = distributed_greedy(kernel, 20, make_config(16, 6, true));
  ASSERT_EQ(result.rounds.size(), 6u);
  EXPECT_GT(result.rounds.front().num_partitions, result.rounds.back().num_partitions);
  EXPECT_EQ(result.rounds.back().num_partitions, 1u);  // final rounds fit one machine
  for (std::size_t i = 1; i < result.rounds.size(); ++i) {
    EXPECT_LE(result.rounds[i].num_partitions, result.rounds[i - 1].num_partitions);
  }
}

TEST(DistributedGreedy, NonAdaptiveAlwaysUsesAllMachines) {
  const Instance instance = random_instance(400, 5, 206);
  const auto ground_set = instance.ground_set();
  const PairwiseKernel kernel(ground_set, ObjectiveParams::from_alpha(0.9));
  const auto result = distributed_greedy(kernel, 40, make_config(8, 4, false));
  for (const auto& round : result.rounds) {
    EXPECT_EQ(round.num_partitions, 8u);
  }
}

TEST(DistributedGreedy, AdaptiveBeatsNonAdaptiveOnAverage) {
  // Figure 4 vs Figure 3: adaptivity recovers neighborhood edges and should
  // not be worse when partitions are plentiful.
  const Instance instance = random_instance(600, 8, 207);
  const auto ground_set = instance.ground_set();
  const PairwiseKernel kernel(ground_set, ObjectiveParams::from_alpha(0.9));
  double adaptive = 0.0, fixed = 0.0;
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    adaptive += distributed_greedy(kernel, 60,
                                   make_config(16, 4, true, 400 + seed))
                    .objective;
    fixed += distributed_greedy(kernel, 60,
                                make_config(16, 4, false, 400 + seed))
                 .objective;
  }
  EXPECT_GE(adaptive, fixed);
}

TEST(DistributedGreedy, RoundStatsAreConsistent) {
  const Instance instance = random_instance(300, 4, 208);
  const auto ground_set = instance.ground_set();
  const PairwiseKernel kernel(ground_set, ObjectiveParams::from_alpha(0.9));
  const auto result = distributed_greedy(kernel, 30, make_config(8, 4, false));
  ASSERT_EQ(result.rounds.size(), 4u);
  EXPECT_EQ(result.rounds[0].input_size, 300u);
  for (std::size_t i = 0; i < result.rounds.size(); ++i) {
    const auto& round = result.rounds[i];
    EXPECT_EQ(round.round, i + 1);
    EXPECT_LE(round.output_size, round.input_size);
    EXPECT_GE(round.output_size, 30u);
    EXPECT_GT(round.peak_partition_bytes, 0u);
    if (i > 0) {
      EXPECT_EQ(round.input_size, result.rounds[i - 1].output_size);
    }
  }
}

TEST(DistributedGreedy, HonorsBoundingState) {
  const Instance instance = random_instance(120, 4, 209);
  const auto ground_set = instance.ground_set();
  const PairwiseKernel kernel(ground_set, ObjectiveParams::from_alpha(0.9));
  BoundingConfig bounding_config;
  bounding_config.sampling = BoundingSampling::kUniform;
  bounding_config.sample_fraction = 0.3;
  const auto bounding = bound(kernel, 40, bounding_config);

  const auto result =
      distributed_greedy(kernel, 40, make_config(4, 2, true), &bounding.state);
  EXPECT_EQ(result.selected.size(), 40u);
  // Every bounding-selected point must be in the answer; discarded must not.
  for (NodeId v : bounding.state.selected_ids()) {
    EXPECT_TRUE(std::binary_search(result.selected.begin(), result.selected.end(), v));
  }
  for (NodeId v = 0; v < 120; ++v) {
    if (bounding.state.is_discarded(v)) {
      EXPECT_FALSE(
          std::binary_search(result.selected.begin(), result.selected.end(), v));
    }
  }
}

TEST(DistributedGreedy, WorstCasePartitioningStillReturnsValidSubset) {
  const Instance instance = random_instance(200, 5, 210);
  const auto ground_set = instance.ground_set();
  const PairwiseKernel kernel(ground_set, ObjectiveParams::from_alpha(0.9));
  const auto params = ObjectiveParams::from_alpha(0.9);
  auto centralized = centralized_greedy(instance.graph, instance.utilities, params, 20);
  std::sort(centralized.selected.begin(), centralized.selected.end());

  auto config = make_config(10, 4, false);
  config.forced_first_partition = centralized.selected;
  const auto result = distributed_greedy(kernel, 20, config);
  EXPECT_EQ(result.selected.size(), 20u);
  std::set<NodeId> unique(result.selected.begin(), result.selected.end());
  EXPECT_EQ(unique.size(), 20u);
}

TEST(DistributedGreedy, KLargerThanGroundSetSelectsEverything) {
  const Instance instance = random_instance(25, 3, 211);
  const auto ground_set = instance.ground_set();
  const PairwiseKernel kernel(ground_set, ObjectiveParams::from_alpha(0.9));
  const auto result = distributed_greedy(kernel, 100, make_config(4, 2, true));
  EXPECT_EQ(result.selected.size(), 25u);
}

TEST(DistributedGreedy, RejectsZeroMachinesOrRounds) {
  const Instance instance = random_instance(10, 2, 212);
  const auto ground_set = instance.ground_set();
  const PairwiseKernel kernel(ground_set, ObjectiveParams::from_alpha(0.9));
  EXPECT_THROW(distributed_greedy(kernel, 5, make_config(0, 1, false)),
               std::invalid_argument);
  EXPECT_THROW(distributed_greedy(kernel, 5, make_config(1, 0, false)),
               std::invalid_argument);
}

TEST(DistributedGreedy, DeterministicForFixedSeed) {
  const Instance instance = random_instance(150, 4, 213);
  const auto ground_set = instance.ground_set();
  const PairwiseKernel kernel(ground_set, ObjectiveParams::from_alpha(0.9));
  const auto a = distributed_greedy(kernel, 15, make_config(8, 3, true, 99));
  const auto b = distributed_greedy(kernel, 15, make_config(8, 3, true, 99));
  EXPECT_EQ(a.selected, b.selected);
  EXPECT_EQ(a.objective, b.objective);
}

TEST(DistributedGreedy, ProgressReportsEveryRound) {
  const Instance instance = random_instance(200, 4, 214);
  const auto ground_set = instance.ground_set();
  const PairwiseKernel kernel(ground_set, ObjectiveParams::from_alpha(0.9));
  auto config = make_config(4, 3, false);
  std::vector<std::size_t> steps;
  config.progress = [&steps](const ProgressEvent& event) {
    EXPECT_EQ(event.stage, "round");
    EXPECT_EQ(event.total_steps, 3u);
    steps.push_back(event.step);
  };
  const auto result = distributed_greedy(kernel, 20, config);
  EXPECT_EQ(steps, (std::vector<std::size_t>{1, 2, 3}));
  EXPECT_FALSE(result.preempted);
  EXPECT_EQ(result.selected.size(), 20u);
}

TEST(DistributedGreedy, CancellationMidRunYieldsCleanPreemption) {
  const Instance instance = random_instance(300, 4, 215);
  const auto ground_set = instance.ground_set();
  const PairwiseKernel kernel(ground_set, ObjectiveParams::from_alpha(0.9));
  auto config = make_config(4, 5, false);
  // Cancel from the progress callback after the first round completes — the
  // round loop must stop at the next round boundary with a preempted result,
  // not a full run and not a partial subset.
  config.progress = [&config](const ProgressEvent& event) {
    if (event.step >= 1) config.cancel.request_stop();
  };
  const auto cancelled = distributed_greedy(kernel, 30, config);
  EXPECT_TRUE(cancelled.preempted);
  EXPECT_TRUE(cancelled.selected.empty());
  EXPECT_EQ(cancelled.objective, 0.0);
  EXPECT_EQ(cancelled.rounds.size(), 1u);

  // Re-arming the token lets the identical config run to completion and
  // match an undisturbed run exactly.
  config.cancel.reset();
  config.progress = nullptr;
  const auto full = distributed_greedy(kernel, 30, config);
  const auto undisturbed =
      distributed_greedy(kernel, 30, make_config(4, 5, false));
  EXPECT_FALSE(full.preempted);
  EXPECT_EQ(full.selected, undisturbed.selected);
}

TEST(DistributedGreedy, CancelledCheckpointedRunResumes) {
  const Instance instance = random_instance(250, 4, 216);
  const auto ground_set = instance.ground_set();
  const PairwiseKernel kernel(ground_set, ObjectiveParams::from_alpha(0.9));
  const std::string checkpoint =
      ::testing::TempDir() + "/distgreedy_cancel.ckpt";

  auto config = make_config(4, 4, false);
  config.checkpoint_file = checkpoint;
  config.progress = [&config](const ProgressEvent& event) {
    if (event.step >= 2) config.cancel.request_stop();
  };
  const auto cancelled = distributed_greedy(kernel, 25, config);
  EXPECT_TRUE(cancelled.preempted);
  EXPECT_EQ(cancelled.rounds.size(), 2u);

  config.cancel.reset();
  config.progress = nullptr;
  const auto resumed = distributed_greedy(kernel, 25, config);
  EXPECT_EQ(resumed.resumed_rounds, 2u);

  config.checkpoint_file.clear();
  const auto uninterrupted = distributed_greedy(kernel, 25, config);
  EXPECT_EQ(resumed.selected, uninterrupted.selected);
}

}  // namespace
}  // namespace subsel::core
