// Fault injection: shard tasks are declared lost after their side effects
// ran and must be re-executed idempotently — the contract real dataflow
// runners (Beam/Flume/Spark) impose on ParDo workers. These tests verify
// (1) every transform produces identical output with and without injected
// faults, (2) retries are counted, (3) the retry budget is enforced, and
// (4) the full Section-5 bounding pipeline survives a lossy "cluster".
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "../testing/test_instances.h"
#include "beam/beam_bounding.h"
#include "beam/beam_greedy.h"
#include "beam/beam_scoring.h"
#include "dataflow/transforms.h"

namespace subsel::dataflow {
namespace {

using subsel::testing::Instance;
using subsel::testing::random_instance;

PipelineOptions faulty_options(double probability, std::size_t shards = 16,
                               std::size_t attempts = 6) {
  PipelineOptions options;
  options.num_shards = shards;
  options.shard_failure_probability = probability;
  options.max_shard_attempts = attempts;
  return options;
}

TEST(FaultInjection, MapAndFilterSurviveFaults) {
  Pipeline clean;
  Pipeline faulty(faulty_options(0.3, 32));
  std::vector<std::int64_t> input(5000);
  std::iota(input.begin(), input.end(), 0);

  auto run = [&](Pipeline& pipeline) {
    auto values = from_vector(pipeline, input);
    auto squares = map<std::int64_t>(values, [](std::int64_t v) { return v * v; });
    auto odd = filter(squares, [](std::int64_t v) { return v % 2 == 1; });
    return to_vector(odd);
  };
  EXPECT_EQ(run(clean), run(faulty));
  EXPECT_GT(faulty.counter("shard_retries"), 0u);
  EXPECT_EQ(clean.counter("shard_retries"), 0u);
}

TEST(FaultInjection, GroupByKeySurvivesFaults) {
  Pipeline clean;
  Pipeline faulty(faulty_options(0.3));
  auto run = [&](Pipeline& pipeline) {
    auto records = from_generator<std::pair<std::uint64_t, std::uint64_t>>(
        pipeline, 4000, [](std::size_t i) {
          return std::pair<std::uint64_t, std::uint64_t>{i % 97, i};
        });
    auto grouped = group_by_key(records);
    auto sums = map<std::uint64_t>(grouped, [](const auto& row) {
      return std::accumulate(row.second.begin(), row.second.end(),
                             std::uint64_t{0});
    });
    auto all = to_vector(sums);
    std::sort(all.begin(), all.end());
    return all;
  };
  EXPECT_EQ(run(clean), run(faulty));
}

TEST(FaultInjection, ThreeWayJoinSurvivesFaults) {
  Pipeline clean;
  Pipeline faulty(faulty_options(0.25));
  auto run = [&](Pipeline& pipeline) {
    auto a = from_generator<std::pair<std::uint64_t, std::uint64_t>>(
        pipeline, 1000, [](std::size_t i) {
          return std::pair<std::uint64_t, std::uint64_t>{i % 50, i};
        });
    auto b = from_generator<std::pair<std::uint64_t, double>>(
        pipeline, 500, [](std::size_t i) {
          return std::pair<std::uint64_t, double>{i % 50, 0.5 * static_cast<double>(i)};
        });
    auto c = from_generator<std::pair<std::uint64_t, std::uint8_t>>(
        pipeline, 25, [](std::size_t i) {
          return std::pair<std::uint64_t, std::uint8_t>{i, std::uint8_t{1}};
        });
    auto joined = co_group_by_key(a, b, c);
    auto sizes = map<std::uint64_t>(joined, [](const auto& row) {
      return (row.key << 16) | (row.first.size() << 8) | (row.second.size() << 4) |
             row.third.size();
    });
    auto all = to_vector(sizes);
    std::sort(all.begin(), all.end());
    return all;
  };
  EXPECT_EQ(run(clean), run(faulty));
}

TEST(FaultInjection, KthLargestDistributedSurvivesFaults) {
  // The binary search dispatches ~64 x num_shards tasks; give the retry
  // budget enough headroom that exhaustion odds are negligible (0.2^10).
  Pipeline clean;
  Pipeline faulty(faulty_options(0.2, 16, 10));
  auto run = [&](Pipeline& pipeline) {
    auto values = from_generator<double>(pipeline, 3000, [](std::size_t i) {
      return std::sin(static_cast<double>(i));
    });
    return kth_largest_distributed(values, 500);
  };
  EXPECT_EQ(run(clean), run(faulty));
}

TEST(FaultInjection, RetryBudgetExhaustionThrows) {
  // probability 1: every attempt fails -> deterministic PipelineFaultError.
  Pipeline pipeline(faulty_options(1.0, 4, 3));
  std::vector<int> input{1, 2, 3, 4};
  EXPECT_THROW(
      {
        auto values = from_vector(pipeline, input);
        auto doubled = map<int>(values, [](int v) { return 2 * v; });
        (void)to_vector(doubled);
      },
      PipelineFaultError);
  EXPECT_GE(pipeline.counter("shard_retries"), 2u);
}

TEST(FaultInjection, FaultPatternIsDeterministicGivenSeed) {
  std::vector<std::uint64_t> retry_counts;
  for (int run = 0; run < 2; ++run) {
    Pipeline pipeline(faulty_options(0.4));
    auto values = from_generator<int>(pipeline, 1000,
                                      [](std::size_t i) { return static_cast<int>(i); });
    (void)sum(values);
    retry_counts.push_back(pipeline.counter("shard_retries"));
  }
  EXPECT_EQ(retry_counts[0], retry_counts[1]);
  EXPECT_GT(retry_counts[0], 0u);
}

TEST(FaultInjection, BeamBoundingIdenticalUnderFaults) {
  // The headline property: the Section-5 bounding pipeline produces the
  // exact same grow/shrink decisions on a lossy cluster.
  const Instance instance = random_instance(120, 5, 930);
  const auto ground_set = instance.ground_set();
  const core::PairwiseKernel kernel(ground_set, core::ObjectiveParams::from_alpha(0.9));

  beam::BoundingConfig config;
  config.sampling = core::BoundingSampling::kUniform;
  config.sample_fraction = 0.3;

  // Dozens of grow/shrink passes -> thousands of shard tasks; see the
  // headroom note in KthLargestDistributedSurvivesFaults.
  Pipeline clean;
  Pipeline faulty(faulty_options(0.2, 16, 10));
  const auto reference = beam::beam_bound(clean, kernel, 20, config);
  const auto lossy = beam::beam_bound(faulty, kernel, 20, config);

  EXPECT_EQ(lossy.state.selected_ids(), reference.state.selected_ids());
  EXPECT_EQ(lossy.state.unassigned_ids(), reference.state.unassigned_ids());
  EXPECT_EQ(lossy.grow_rounds, reference.grow_rounds);
  EXPECT_EQ(lossy.shrink_rounds, reference.shrink_rounds);
  EXPECT_GT(faulty.counter("shard_retries"), 0u);
}

TEST(FaultInjection, BeamGreedyIdenticalUnderFaults) {
  const Instance instance = random_instance(300, 4, 931);
  const auto ground_set = instance.ground_set();
  const core::PairwiseKernel kernel(ground_set, core::ObjectiveParams::from_alpha(0.9));

  beam::BeamGreedyConfig config;
  config.num_machines = 8;
  config.num_rounds = 3;

  Pipeline clean;
  Pipeline faulty(faulty_options(0.2, 16, 10));
  const auto reference = beam::beam_distributed_greedy(clean, kernel, 30, config);
  const auto lossy = beam::beam_distributed_greedy(faulty, kernel, 30, config);
  EXPECT_EQ(lossy.selected, reference.selected);
}

TEST(FaultInjection, BeamScoringIdenticalUnderFaults) {
  const Instance instance = random_instance(200, 5, 932);
  const auto ground_set = instance.ground_set();
  std::vector<core::NodeId> subset;
  for (core::NodeId v = 0; v < 200; v += 3) subset.push_back(v);

  Pipeline clean;
  Pipeline faulty(faulty_options(0.25));
  const auto params = core::ObjectiveParams::from_alpha(0.9);
  EXPECT_EQ(beam::beam_score(faulty, ground_set, subset, params),
            beam::beam_score(clean, ground_set, subset, params));
}

}  // namespace
}  // namespace subsel::dataflow
