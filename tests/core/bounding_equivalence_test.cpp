// core::bound's pruned Grow against the full-pass reference loop
// (tests/testing/bounding_reference.h): identical decisions, round counts and
// open budget on kNN-structured instances that run dozens of Grow passes;
// under round caps, an expired deadline and a tiny-cache DiskGroundSet; the
// bit-level invariants the pruning rests on (Uexp ≤ Umax, and a maintained
// Umax equal to a fresh one); and read counts that show each Grow pass reads
// only its candidates and the neighborhoods its selections touch.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "../testing/bounding_reference.h"
#include "../testing/property.h"
#include "../testing/temp_dir.h"
#include "../testing/test_instances.h"
#include "core/bounding.h"
#include "graph/disk_ground_set.h"

namespace subsel::core {
namespace {

using testing::Instance;
using testing::bounding_difference;
using testing::clustered_instance;
using testing::reference_bound;
using testing::reference_grow_step;

constexpr BoundingSampling kModes[] = {BoundingSampling::kNone,
                                       BoundingSampling::kUniform,
                                       BoundingSampling::kWeighted};

ObjectiveParams params_for(std::uint64_t seed) {
  return ObjectiveParams::from_alpha(seed % 2 == 1 ? 0.9 : 0.7);
}

BoundingConfig make_config(BoundingSampling sampling, std::uint64_t seed) {
  BoundingConfig config;
  config.sampling = sampling;
  config.sample_fraction = sampling == BoundingSampling::kNone ? 1.0 : 0.3;
  config.seed = seed;
  return config;
}

std::size_t budget(std::size_t n, double fraction) {
  return std::max<std::size_t>(
      1, static_cast<std::size_t>(fraction * static_cast<double>(n)));
}

std::uint64_t bits(double value) { return std::bit_cast<std::uint64_t>(value); }

/// The window GrowState's invariant names: the ascending ids of the
/// unassigned points whose maintained Umax ≥ the floor.
std::vector<NodeId> invariant_window(const SelectionState& state, const GrowState& grow) {
  std::vector<NodeId> ids;
  for (std::size_t i = 0; i < state.size(); ++i) {
    const auto v = static_cast<NodeId>(i);
    if (state.is_unassigned(v) && grow.u_max()[i] >= grow.floor()) ids.push_back(v);
  }
  return ids;
}

/// The window with the points a Shrink pass discarded since the last Grow
/// pass left out; the next Grow pass drops them first.
std::vector<NodeId> unassigned_window(const SelectionState& state,
                                      const GrowState& grow) {
  std::vector<NodeId> ids;
  for (const NodeId v : grow.window()) {
    if (state.is_unassigned(v)) ids.push_back(v);
  }
  return ids;
}

/// Forwards to a ground set and counts neighborhood reads.
class CountingGroundSet final : public graph::GroundSet {
 public:
  explicit CountingGroundSet(const graph::GroundSet& inner) : inner_(inner) {}

  std::size_t num_points() const override { return inner_.num_points(); }
  double utility(NodeId v) const override { return inner_.utility(v); }
  void prefetch(std::span<const NodeId> nodes, ThreadPool* pool) const override {
    inner_.prefetch(nodes, pool);
  }
  void neighbors(NodeId v, std::vector<graph::Edge>& out) const override {
    reads_.fetch_add(1, std::memory_order_relaxed);
    inner_.neighbors(v, out);
  }
  std::span<const graph::Edge> neighbors_span(
      NodeId v, std::vector<graph::Edge>& scratch) const override {
    reads_.fetch_add(1, std::memory_order_relaxed);
    return inner_.neighbors_span(v, scratch);
  }

  std::size_t reads() const { return reads_.load(); }
  void reset() { reads_.store(0); }

 private:
  const graph::GroundSet& inner_;
  mutable std::atomic<std::size_t> reads_{0};
};

/// The reads a Grow pass from `before` (budget `k_before`) to `after` may
/// make: fewer than k_before probes, one per newly selected point, and one
/// per distinct still-unassigned neighbor of those.
std::size_t grow_read_allowance(const graph::GroundSet& ground_set,
                                const SelectionState& before, std::size_t k_before,
                                const SelectionState& after) {
  if (k_before == 0) return 0;
  std::size_t selected = 0;
  std::vector<NodeId> touched;
  std::vector<graph::Edge> edges;
  for (std::size_t i = 0; i < before.size(); ++i) {
    const auto v = static_cast<NodeId>(i);
    if (!before.is_unassigned(v) || !after.is_selected(v)) continue;
    ++selected;
    ground_set.neighbors(v, edges);
    for (const graph::Edge& e : edges) {
      if (after.is_unassigned(e.neighbor)) touched.push_back(e.neighbor);
    }
  }
  std::sort(touched.begin(), touched.end());
  touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
  return (k_before - 1) + selected + touched.size();
}

TEST(BoundingEquivalence, PrunedGrowMatchesFullPassReferenceOverManySeeds) {
  std::size_t runs = 0, grow_passes = 0, most_grow_passes = 0;
  testing::check_property(
      "core::bound == full-pass reference", 100,
      [&](std::uint64_t seed, double scale) -> std::optional<std::string> {
        const std::size_t n = testing::scaled(600, scale, 40);
        const Instance instance = clustered_instance(n, seed);
        const auto ground_set = instance.ground_set();
        for (const BoundingSampling sampling : kModes) {
          for (const double fraction : {0.05, 0.1, 0.2}) {
            const BoundingConfig config = make_config(sampling, seed);
            const ObjectiveParams params = params_for(seed);
            const std::size_t k = budget(n, fraction);
            const BoundingResult got =
                bound(PairwiseKernel(ground_set, params), k, config);
            const BoundingResult want = reference_bound(ground_set, params, k, config);
            if (auto diff = bounding_difference(got, want)) {
              return "sampling " + std::to_string(static_cast<int>(sampling)) +
                     " k " + std::to_string(k) + ": " + *diff;
            }
            ++runs;
            grow_passes += got.grow_rounds;
            most_grow_passes = std::max(most_grow_passes, got.grow_rounds);
          }
        }
        return std::nullopt;
      },
      /*base_seed=*/1);
  // The sweep must exercise long Grow chains, not just one-pass runs.
  EXPECT_GE(most_grow_passes, 30u);
  EXPECT_GE(grow_passes, 4 * runs);
}

TEST(BoundingEquivalence, RoundCapsStopAtTheSamePass) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const Instance instance = clustered_instance(600, seed);
    const auto ground_set = instance.ground_set();
    for (const BoundingSampling sampling : kModes) {
      for (const std::size_t cap : {1, 2, 3, 4, 6, 9, 14, 20, 35}) {
        BoundingConfig config = make_config(sampling, seed);
        const ObjectiveParams params = params_for(seed);
        config.max_rounds = cap;
        const std::size_t k = budget(600, 0.2);
        const auto diff =
            bounding_difference(bound(PairwiseKernel(ground_set, params), k, config),
                                reference_bound(ground_set, params, k, config));
        EXPECT_FALSE(diff.has_value()) << "seed " << seed << " sampling "
                                       << static_cast<int>(sampling) << " cap "
                                       << cap << ": " << diff.value_or("");
      }
    }
  }
}

TEST(BoundingEquivalence, ExpiredDeadlineDegradesIdentically) {
  const Instance instance = clustered_instance(300, 5);
  const auto ground_set = instance.ground_set();
  for (const BoundingSampling sampling : kModes) {
    BoundingConfig config = make_config(sampling, 5);
    const ObjectiveParams params = params_for(5);
    config.deadline = Deadline::after_ms(0);
    const BoundingResult got = bound(PairwiseKernel(ground_set, params), 60, config);
    EXPECT_TRUE(got.degraded);
    EXPECT_EQ(got.k_remaining, 60u);
    const auto diff =
        bounding_difference(got, reference_bound(ground_set, params, 60, config));
    EXPECT_FALSE(diff.has_value()) << diff.value_or("");
  }
}

TEST(BoundingEquivalence, TinyCacheDiskGroundSetMatchesInMemoryReference) {
  const auto dir = testing::process_temp_path("subsel_bounding_equivalence");
  std::filesystem::create_directories(dir);
  graph::DiskGroundSetConfig cache;
  cache.block_edges = 64;  // ~6 nodes per block
  cache.max_cached_blocks = 2;
  cache.num_shards = 1;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const Instance instance = clustered_instance(500, seed);
    const std::string path = (dir / ("graph" + std::to_string(seed) + ".bin")).string();
    instance.graph.save(path);
    const graph::DiskGroundSet disk(path, instance.utilities, cache);
    const auto memory = instance.ground_set();
    for (const BoundingSampling sampling : kModes) {
      for (const double fraction : {0.1, 0.2}) {
        const BoundingConfig config = make_config(sampling, seed);
        const ObjectiveParams params = params_for(seed);
        const std::size_t k = budget(500, fraction);
        const auto diff =
            bounding_difference(bound(PairwiseKernel(disk, params), k, config),
                                reference_bound(memory, params, k, config));
        EXPECT_FALSE(diff.has_value())
            << "seed " << seed << " sampling " << static_cast<int>(sampling)
            << " k " << k << ": " << diff.value_or("");
      }
    }
    EXPECT_LE(disk.stats().resident_blocks_high_water, 2u);
  }
  std::filesystem::remove_all(dir);
}

TEST(BoundingEquivalence, MaintainedUmaxStaysBitIdenticalAndBoundsUexp) {
  // Drives shrink/grow passes by hand, carrying one GrowState across them as
  // bound() does. After every pass the window holds exactly the unassigned
  // points whose Umax ≥ its floor (after a Shrink pass, up to the points that
  // pass discarded). After every Grow pass: each unassigned point's
  // Uexp ≤ Umax holds bit for bit (the fact the pruning rests on), the Umax
  // grow_step maintains equals a fresh full pass bit for bit, and the pass
  // selected what the full-pass Grow selects from the same state.
  std::size_t most_rebuilds = 0;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const Instance instance = clustered_instance(400, seed);
    const auto ground_set = instance.ground_set();
    for (const BoundingSampling sampling : kModes) {
      const BoundingConfig config = make_config(sampling, seed);
      const ObjectiveParams params = params_for(seed);
      SelectionState state(400);
      GrowState grow(instance.utilities);
      std::size_t k_remaining = 80, rebuilds = 0;
      std::uint64_t salt = 0;
      for (int round = 0; round < 100 && k_remaining > 0; ++round) {
        const std::size_t discarded =
            shrink_step(ground_set, params, state, k_remaining, config, ++salt);
        ASSERT_EQ(unassigned_window(state, grow), invariant_window(state, grow))
            << "seed " << seed << " round " << round << " after shrink";

        SelectionState reference_state = state;
        std::size_t reference_k = k_remaining;
        ++salt;
        reference_grow_step(ground_set, params, reference_state, reference_k, config,
                            salt);
        const double floor_before = grow.floor();
        const std::size_t grown =
            grow_step(ground_set, params, state, k_remaining, grow, config, salt);
        if (grow.floor() != floor_before) ++rebuilds;
        ASSERT_EQ(state.selected_ids(), reference_state.selected_ids())
            << "seed " << seed << " round " << round;
        ASSERT_EQ(k_remaining, reference_k);
        ASSERT_EQ(grow.window(), invariant_window(state, grow))
            << "seed " << seed << " round " << round << " after grow";

        std::vector<double> fresh_min, fresh_max;
        detail::compute_utility_bounds(ground_set, params, state, config,
                                       salt + 1, fresh_min, fresh_max);
        for (std::size_t i = 0; i < state.size(); ++i) {
          if (!state.is_unassigned(static_cast<NodeId>(i))) continue;
          ASSERT_EQ(bits(grow.u_max()[i]), bits(fresh_max[i]))
              << "seed " << seed << " round " << round << " point " << i;
          ASSERT_LE(fresh_min[i], fresh_max[i])
              << "seed " << seed << " round " << round << " point " << i;
        }
        if (discarded == 0 && grown == 0) break;
      }
      most_rebuilds = std::max(most_rebuilds, rebuilds);
    }
  }
  // Some run must outlive its first window, so the carried window and the
  // rebuild rule are both exercised. Only a rebuild moves the floor, so the
  // floor changes count rebuilds (one that lands on the same floor is missed).
  EXPECT_GE(most_rebuilds, 2u);
}

TEST(BoundingReads, GrowPassReadsOnlyCandidatesAndSelectedNeighborhoods) {
  std::size_t grow_reads = 0, full_pass_reads = 0, most_rebuilds = 0;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const Instance instance = clustered_instance(600, seed);
    const auto ground_set = instance.ground_set();
    CountingGroundSet counting(ground_set);
    for (const BoundingSampling sampling : kModes) {
      const BoundingConfig config = make_config(sampling, seed);
      const ObjectiveParams params = params_for(seed);
      SelectionState state(600);
      GrowState grow(instance.utilities);
      std::size_t k_remaining = 120, rebuilds = 0;
      std::uint64_t salt = 0;
      for (int round = 0; round < 100 && k_remaining > 0; ++round) {
        const std::size_t discarded =
            shrink_step(ground_set, params, state, k_remaining, config, ++salt);
        ASSERT_EQ(unassigned_window(state, grow), invariant_window(state, grow))
            << "seed " << seed << " round " << round << " after shrink";
        const SelectionState before = state;
        const std::size_t k_before = k_remaining;
        counting.reset();
        const double floor_before = grow.floor();
        const std::size_t grown =
            grow_step(counting, params, state, k_remaining, grow, config, ++salt);
        if (grow.floor() != floor_before) ++rebuilds;
        EXPECT_LE(counting.reads(),
                  grow_read_allowance(ground_set, before, k_before, state))
            << "seed " << seed << " round " << round;
        ASSERT_EQ(grow.window(), invariant_window(state, grow))
            << "seed " << seed << " round " << round << " after grow";
        grow_reads += counting.reads();
        full_pass_reads += before.num_unassigned();
        if (discarded == 0 && grown == 0) break;
      }
      most_rebuilds = std::max(most_rebuilds, rebuilds);
    }
  }
  EXPECT_LT(grow_reads, full_pass_reads);
  EXPECT_GE(most_rebuilds, 2u);
}

TEST(BoundingReads, BoundReadsNoMoreThanFullShrinksAndPrunedGrows) {
  // Whole-run gate through the public bound(): the full-pass reference loop
  // replays the same passes and sums what each may read — every unassigned
  // neighborhood for a Shrink pass, the pruned allowance for a Grow pass.
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const Instance instance = clustered_instance(600, seed);
    const auto ground_set = instance.ground_set();
    for (const BoundingSampling sampling : kModes) {
      const BoundingConfig config = make_config(sampling, seed);
      const ObjectiveParams params = params_for(seed);
      std::size_t allowance = 0;
      std::size_t full_passes = 0;
      reference_bound(ground_set, params, 120, config,
                      [&](const SelectionState& before, std::size_t k_before,
                          bool grow, const SelectionState& after) {
                        full_passes += before.num_unassigned();
                        allowance += grow ? grow_read_allowance(ground_set, before,
                                                                k_before, after)
                                          : before.num_unassigned();
                      });
      const CountingGroundSet counting(ground_set);
      bound(PairwiseKernel(counting, params), 120, config);
      EXPECT_LE(counting.reads(), allowance)
          << "seed " << seed << " sampling " << static_cast<int>(sampling)
          << " (full passes would read " << full_passes << ")";
    }
  }
}

}  // namespace
}  // namespace subsel::core
