// Deadline-degraded baselines: an expired wall-clock budget makes every
// solver RETURN what it has — a valid (merely smaller) selection flagged
// `degraded` — instead of failing, and what it returns is always a prefix
// of (or identical to) the unhurried run's answer where the algorithm's
// order is deterministic.
#include <gtest/gtest.h>

#include <vector>

#include "../testing/test_instances.h"
#include "baselines/baselines.h"
#include "baselines/streaming.h"
#include "common/run_control.h"
#include "core/objective_kernel.h"

namespace subsel::baselines {
namespace {

using subsel::testing::Instance;
using subsel::testing::random_instance;

bool is_prefix(const std::vector<core::NodeId>& prefix,
               const std::vector<core::NodeId>& full) {
  if (prefix.size() > full.size()) return false;
  for (std::size_t i = 0; i < prefix.size(); ++i) {
    if (prefix[i] != full[i]) return false;
  }
  return true;
}

TEST(DeadlineDegradation, LazyGreedyExpiredDeadlineReturnsDegradedPrefix) {
  const Instance instance = random_instance(200, 5, 1401);
  const auto ground_set = instance.ground_set();
  const core::PairwiseKernel kernel(ground_set,
                                    ObjectiveParams::from_alpha(0.9));
  const auto result = lazy_greedy(kernel, 20, Deadline::after_ms(0));
  EXPECT_TRUE(result.degraded);
  EXPECT_TRUE(result.selected.empty());  // expired before the first commit
}

TEST(DeadlineDegradation, LazyGreedyTightDeadlineResultIsAPrefixOfTheFullRun) {
  // Whether or not the 1 ms budget expires mid-run on this machine, the
  // returned selection must be a prefix of the unhurried answer: each lazy
  // greedy prefix is the exact answer for its own size.
  const Instance instance = random_instance(1500, 6, 1402);
  const auto ground_set = instance.ground_set();
  const core::PairwiseKernel kernel(ground_set,
                                    ObjectiveParams::from_alpha(0.9));
  const auto full = lazy_greedy(kernel, 150);
  ASSERT_FALSE(full.degraded);
  const auto hurried = lazy_greedy(kernel, 150, Deadline::after_ms(1));
  EXPECT_TRUE(is_prefix(hurried.selected, full.selected));
  if (!hurried.degraded) EXPECT_EQ(hurried.selected, full.selected);
}

TEST(DeadlineDegradation, StochasticGreedyExpiredDeadline) {
  const Instance instance = random_instance(200, 5, 1403);
  const auto ground_set = instance.ground_set();
  const core::PairwiseKernel kernel(ground_set,
                                    ObjectiveParams::from_alpha(0.9));
  const auto result =
      stochastic_greedy(kernel, 20, 0.1, 31, Deadline::after_ms(0));
  EXPECT_TRUE(result.degraded);
  EXPECT_TRUE(result.selected.empty());
}

TEST(DeadlineDegradation, ThresholdGreedyExpiredDeadline) {
  const Instance instance = random_instance(200, 5, 1404);
  const auto ground_set = instance.ground_set();
  const core::PairwiseKernel kernel(ground_set,
                                    ObjectiveParams::from_alpha(0.9));
  const auto result = threshold_greedy(kernel, 20, 0.1, Deadline::after_ms(0));
  EXPECT_TRUE(result.degraded);
  EXPECT_LE(result.selected.size(), 20u);
}

TEST(DeadlineDegradation, SieveStreamingExpiredDeadline) {
  const Instance instance = random_instance(300, 5, 1405);
  const auto ground_set = instance.ground_set();
  SieveStreamingConfig config;
  config.deadline = Deadline::after_ms(0);
  const auto result = sieve_streaming(
      core::PairwiseKernel(ground_set, ObjectiveParams::from_alpha(0.9)), 30, config);
  EXPECT_TRUE(result.degraded);
  EXPECT_LE(result.selected.size(), 30u);
}

TEST(DeadlineDegradation, SampleAndPruneExpiredDeadline) {
  const Instance instance = random_instance(300, 5, 1406);
  const auto ground_set = instance.ground_set();
  SamplePruneConfig config;
  config.deadline = Deadline::after_ms(0);
  const auto result = sample_and_prune(
      core::PairwiseKernel(ground_set, ObjectiveParams::from_alpha(0.9)), 30, config);
  EXPECT_TRUE(result.degraded);
  EXPECT_LE(result.selected.size(), 30u);
}

TEST(DeadlineDegradation, UnlimitedDeadlineNeverDegrades) {
  const Instance instance = random_instance(150, 4, 1407);
  const auto ground_set = instance.ground_set();
  const core::PairwiseKernel kernel(ground_set,
                                    ObjectiveParams::from_alpha(0.9));
  EXPECT_FALSE(Deadline::unlimited().is_limited());
  EXPECT_FALSE(Deadline::unlimited().expired());

  const auto lazy = lazy_greedy(kernel, 15, Deadline::unlimited());
  EXPECT_FALSE(lazy.degraded);
  EXPECT_EQ(lazy.selected.size(), 15u);
  const auto stochastic =
      stochastic_greedy(kernel, 15, 0.1, 31, Deadline::unlimited());
  EXPECT_FALSE(stochastic.degraded);
  EXPECT_EQ(stochastic.selected.size(), 15u);
  const auto threshold = threshold_greedy(kernel, 15, 0.1, Deadline::unlimited());
  EXPECT_FALSE(threshold.degraded);
  EXPECT_EQ(threshold.selected.size(), 15u);
}

TEST(DeadlineDegradation, DeadlinedOverloadMatchesPlainOverloadWhenUnlimited) {
  // The deadline parameter must be behavior-neutral when unlimited: the
  // default and an explicit unlimited Deadline produce identical output.
  const Instance instance = random_instance(250, 5, 1408);
  const auto ground_set = instance.ground_set();
  const core::PairwiseKernel kernel(ground_set,
                                    ObjectiveParams::from_alpha(0.9));
  const auto plain = lazy_greedy(kernel, 25);
  const auto with_deadline = lazy_greedy(kernel, 25, Deadline::unlimited());
  EXPECT_EQ(plain.selected, with_deadline.selected);
  EXPECT_EQ(plain.objective, with_deadline.objective);
}

}  // namespace
}  // namespace subsel::baselines
