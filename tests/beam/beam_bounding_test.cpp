// Equivalence of the Section-5 dataflow implementation with the in-memory
// reference — the core systems claim: bounding runs correctly without the
// subset being resident on any worker.
#include "beam/beam_bounding.h"

#include <gtest/gtest.h>

#include <cmath>
#include <optional>
#include <string>

#include "../testing/bounding_reference.h"
#include "../testing/property.h"
#include "../testing/test_instances.h"
#include "dataflow/transforms.h"

namespace subsel::beam {
namespace {

using core::BoundingSampling;
using subsel::testing::Instance;
using subsel::testing::bounding_difference;
using subsel::testing::random_instance;

dataflow::Pipeline make_pipeline(std::size_t shards = 8) {
  dataflow::PipelineOptions options;
  options.num_shards = shards;
  return dataflow::Pipeline(options);
}

BoundingConfig make_config(BoundingSampling sampling, double p) {
  BoundingConfig config;
  config.sampling = sampling;
  config.sample_fraction = p;
  return config;
}

TEST(BeamBounds, MatchInMemoryBoundsExactly) {
  const Instance instance = random_instance(80, 5, 501);
  const auto ground_set = instance.ground_set();
  auto pipeline = make_pipeline();
  const auto params = core::ObjectiveParams::from_alpha(0.9);
  const auto config = make_config(BoundingSampling::kNone, 1.0);

  SelectionState state(80);
  state.select(3);
  state.select(40);
  state.discard(11);
  state.discard(70);

  std::vector<double> u_min, u_max;
  core::detail::compute_utility_bounds(ground_set, params, state, config, 5, u_min,
                                       u_max);
  const auto beam_bounds = to_vector(
      compute_bounds_collection(pipeline, ground_set, params, state, config, 5));

  ASSERT_EQ(beam_bounds.size(), state.num_unassigned());
  for (const auto& [id, bounds] : beam_bounds) {
    EXPECT_DOUBLE_EQ(bounds.u_max, u_max[static_cast<std::size_t>(id)]) << id;
    EXPECT_DOUBLE_EQ(bounds.u_min, u_min[static_cast<std::size_t>(id)]) << id;
  }
}

TEST(BeamBounds, MatchInMemoryWithSampling) {
  const Instance instance = random_instance(60, 4, 502);
  const auto ground_set = instance.ground_set();
  auto pipeline = make_pipeline();
  const auto params = core::ObjectiveParams::from_alpha(0.5);
  for (auto sampling : {BoundingSampling::kUniform, BoundingSampling::kWeighted}) {
    const auto config = make_config(sampling, 0.4);
    SelectionState state(60);
    state.select(7);
    state.discard(12);

    std::vector<double> u_min, u_max;
    core::detail::compute_utility_bounds(ground_set, params, state, config, 9, u_min,
                                         u_max);
    const auto beam_bounds = to_vector(
        compute_bounds_collection(pipeline, ground_set, params, state, config, 9));
    for (const auto& [id, bounds] : beam_bounds) {
      EXPECT_DOUBLE_EQ(bounds.u_min, u_min[static_cast<std::size_t>(id)])
          << "sampling mode " << static_cast<int>(sampling) << " id " << id;
    }
  }
}

class BeamBoundEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<double, int>> {};

TEST_P(BeamBoundEquivalenceTest, FullRunMatchesInMemoryBounding) {
  const auto [alpha, mode] = GetParam();
  const Instance instance = random_instance(70, 5, 503 + mode);
  const auto ground_set = instance.ground_set();
  const core::PairwiseKernel kernel(ground_set, core::ObjectiveParams::from_alpha(alpha));
  auto pipeline = make_pipeline();

  BoundingConfig config = make_config(
      mode == 0 ? BoundingSampling::kNone
                : (mode == 1 ? BoundingSampling::kUniform : BoundingSampling::kWeighted),
      mode == 0 ? 1.0 : 0.3);

  const auto reference = core::bound(kernel, 14, config);
  const auto distributed = beam_bound(pipeline, kernel, 14, config);

  EXPECT_EQ(distributed.included, reference.included);
  EXPECT_EQ(distributed.excluded, reference.excluded);
  EXPECT_EQ(distributed.grow_rounds, reference.grow_rounds);
  EXPECT_EQ(distributed.shrink_rounds, reference.shrink_rounds);
  EXPECT_EQ(distributed.k_remaining, reference.k_remaining);
  EXPECT_EQ(distributed.state.selected_ids(), reference.state.selected_ids());
  EXPECT_EQ(distributed.state.unassigned_ids(), reference.state.unassigned_ids());
}

INSTANTIATE_TEST_SUITE_P(
    AlphaAndSampling, BeamBoundEquivalenceTest,
    ::testing::Combine(::testing::Values(0.9, 0.5), ::testing::Values(0, 1, 2)));

TEST(BeamBoundEquivalence, PrunedCoreGrowMatchesBeamOverManySeeds) {
  // core::bound's Grow reads only its candidates and refreshes a maintained
  // Umax; beam_bound re-joins every neighborhood on every pass. Every seed
  // runs all three sampling modes on a kNN-structured instance, with the
  // budget cycling through 5 %, 10 % and 20 % of the points across seeds.
  std::size_t most_grow_passes = 0;
  subsel::testing::check_property(
      "core::bound == beam_bound", 100,
      [&](std::uint64_t seed, double scale) -> std::optional<std::string> {
        const std::size_t n = subsel::testing::scaled(300, scale, 40);
        const Instance instance = subsel::testing::clustered_instance(n, seed);
        const auto ground_set = instance.ground_set();
        const core::PairwiseKernel kernel(
            ground_set, core::ObjectiveParams::from_alpha(seed % 2 == 1 ? 0.9 : 0.7));
        const double fraction = seed % 3 == 0 ? 0.05 : (seed % 3 == 1 ? 0.1 : 0.2);
        const std::size_t k =
            std::max<std::size_t>(1, static_cast<std::size_t>(fraction * n));
        for (int mode = 0; mode < 3; ++mode) {
          BoundingConfig config =
              make_config(static_cast<BoundingSampling>(mode), mode == 0 ? 1.0 : 0.3);
          config.seed = seed;
          auto pipeline = make_pipeline(4);
          const auto core_result = core::bound(kernel, k, config);
          const auto beam_result = beam_bound(pipeline, kernel, k, config);
          most_grow_passes = std::max(most_grow_passes, core_result.grow_rounds);
          if (auto diff = bounding_difference(core_result, beam_result)) {
            return "sampling mode " + std::to_string(mode) + " k " + std::to_string(k) +
                   ": " + *diff;
          }
        }
        return std::nullopt;
      },
      /*base_seed=*/1);
  EXPECT_GE(most_grow_passes, 20u);
}

TEST(BeamBound, WorksUnderTightWorkerMemoryBudget) {
  // The point of Section 5: the run must succeed even when one worker could
  // not hold the whole instance. Budget ~1/4 of the fanned graph size.
  const Instance instance = random_instance(400, 8, 504);
  const auto ground_set = instance.ground_set();

  dataflow::PipelineOptions options;
  options.num_shards = 64;
  options.worker_memory_bytes = 32 * 1024;
  dataflow::Pipeline pipeline(options);

  const auto config = make_config(BoundingSampling::kUniform, 0.3);
  const auto result = beam_bound(
      pipeline, core::PairwiseKernel(ground_set, core::ObjectiveParams::from_alpha(0.9)),
      40, config);
  EXPECT_EQ(result.included + result.k_remaining, 40u);
  EXPECT_LE(pipeline.peak_shard_bytes(), 32u * 1024u);
  // Sanity: the whole-instance working set would have blown the budget.
  EXPECT_GT(400u * 8u * sizeof(graph::Edge) + 400 * 16, 32u * 1024u);
}

TEST(BeamBound, CountersTrackDecisions) {
  const Instance instance = random_instance(100, 5, 505);
  const auto ground_set = instance.ground_set();
  auto pipeline = make_pipeline();
  const auto config = make_config(BoundingSampling::kUniform, 0.3);
  const auto result = beam_bound(
      pipeline, core::PairwiseKernel(ground_set, core::ObjectiveParams::from_alpha(0.9)),
      10, config);
  EXPECT_EQ(pipeline.counter("grow_selected"), result.included);
  EXPECT_EQ(pipeline.counter("shrink_discarded"), result.excluded);
}

}  // namespace
}  // namespace subsel::beam
