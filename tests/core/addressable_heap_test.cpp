#include "core/addressable_heap.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.h"
#include "core/subproblem_arena.h"

namespace subsel::core {
namespace {

TEST(AddressableMaxHeap, PopsInDescendingOrder) {
  const std::vector<double> priorities{3.0, 1.0, 4.0, 1.5, 5.0};
  AddressableMaxHeap heap(priorities);
  std::vector<double> popped;
  while (!heap.empty()) {
    const auto id = heap.pop_max();
    popped.push_back(priorities[id]);
  }
  EXPECT_TRUE(std::is_sorted(popped.rbegin(), popped.rend()));
  EXPECT_EQ(popped.front(), 5.0);
  EXPECT_EQ(popped.back(), 1.0);
}

TEST(AddressableMaxHeap, TieBreaksOnSmallerId) {
  const std::vector<double> priorities{2.0, 2.0, 2.0};
  AddressableMaxHeap heap(priorities);
  EXPECT_EQ(heap.pop_max(), 0u);
  EXPECT_EQ(heap.pop_max(), 1u);
  EXPECT_EQ(heap.pop_max(), 2u);
}

TEST(AddressableMaxHeap, ContainsTracksLiveness) {
  const std::vector<double> priorities{1.0, 2.0};
  AddressableMaxHeap heap(priorities);
  EXPECT_TRUE(heap.contains(0));
  EXPECT_TRUE(heap.contains(1));
  EXPECT_EQ(heap.pop_max(), 1u);
  EXPECT_FALSE(heap.contains(1));
  EXPECT_TRUE(heap.contains(0));
}

TEST(AddressableMaxHeap, DecreaseWeightReordersHeap) {
  const std::vector<double> priorities{5.0, 4.0, 3.0};
  AddressableMaxHeap heap(priorities);
  heap.decrease_weight_by(0, 3.0);  // 0 drops to 2.0
  EXPECT_EQ(heap.pop_max(), 1u);
  EXPECT_EQ(heap.pop_max(), 2u);
  EXPECT_EQ(heap.pop_max(), 0u);
  EXPECT_DOUBLE_EQ(heap.priority(0), 2.0);
}

TEST(AddressableMaxHeap, UpdateCanIncrease) {
  const std::vector<double> priorities{1.0, 2.0, 3.0};
  AddressableMaxHeap heap(priorities);
  heap.update(0, 10.0);
  EXPECT_EQ(heap.pop_max(), 0u);
}

TEST(AddressableMaxHeap, PriorityReadableAfterPop) {
  const std::vector<double> priorities{1.0, 2.0};
  AddressableMaxHeap heap(priorities);
  heap.decrease_weight_by(1, 0.5);
  const auto id = heap.pop_max();
  EXPECT_EQ(id, 1u);
  EXPECT_DOUBLE_EQ(heap.priority(id), 1.5);
}

TEST(AddressableMaxHeap, EmptyHeap) {
  AddressableMaxHeap heap(std::vector<double>{});
  EXPECT_TRUE(heap.empty());
  EXPECT_EQ(heap.size(), 0u);
}

TEST(AddressableMaxHeap, SingleElement) {
  AddressableMaxHeap heap(std::vector<double>{7.0});
  EXPECT_EQ(heap.peek(), 0u);
  EXPECT_EQ(heap.pop_max(), 0u);
  EXPECT_TRUE(heap.empty());
}

/// Property test: random interleavings of pops and decreases must match a
/// naive array-scan implementation.
class HeapPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HeapPropertyTest, MatchesNaiveReference) {
  Rng rng(GetParam());
  const std::size_t n = 50 + rng.uniform_index(100);
  std::vector<double> priorities(n);
  for (double& p : priorities) p = rng.uniform(-10, 10);

  AddressableMaxHeap heap(priorities);
  std::vector<double> reference = priorities;
  std::vector<bool> live(n, true);

  auto reference_max = [&]() -> std::uint32_t {
    std::uint32_t best = AddressableMaxHeap::kNotInHeap;
    for (std::uint32_t i = 0; i < n; ++i) {
      if (!live[i]) continue;
      if (best == AddressableMaxHeap::kNotInHeap ||
          reference[i] > reference[best] ||
          (reference[i] == reference[best] && i < best)) {
        best = i;
      }
    }
    return best;
  };

  std::size_t remaining = n;
  while (remaining > 0) {
    if (rng.bernoulli(0.6)) {
      // Decrease a random live element.
      std::uint32_t id;
      do {
        id = static_cast<std::uint32_t>(rng.uniform_index(n));
      } while (!live[id]);
      const double delta = rng.uniform(0, 5);
      heap.decrease_weight_by(id, delta);
      reference[id] -= delta;
      ASSERT_DOUBLE_EQ(heap.priority(id), reference[id]);
    } else {
      const auto expected = reference_max();
      const auto actual = heap.pop_max();
      ASSERT_EQ(actual, expected);
      live[expected] = false;
      --remaining;
      ASSERT_EQ(heap.size(), remaining);
    }
  }
  EXPECT_TRUE(heap.empty());
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, HeapPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(AddressableMaxHeap, AssignReusesStorageAndRebuilds) {
  AddressableMaxHeap heap;
  EXPECT_TRUE(heap.empty());
  heap.assign(std::vector<double>{1.0, 3.0, 2.0});
  EXPECT_EQ(heap.pop_max(), 1u);
  heap.assign(std::vector<double>{5.0, 4.0});  // reuse after partial drain
  EXPECT_EQ(heap.size(), 2u);
  EXPECT_EQ(heap.pop_max(), 0u);
  EXPECT_EQ(heap.pop_max(), 1u);
  EXPECT_TRUE(heap.empty());
}

TEST(AddressableMaxHeap, DecreaseEdgesSkipsPoppedIds) {
  AddressableMaxHeap heap(std::vector<double>{5.0, 4.0, 3.0});
  EXPECT_EQ(heap.pop_max(), 0u);
  const std::vector<Subproblem::LocalEdge> edges{
      {0, 10.0f},  // popped: must be ignored
      {1, 2.0f},   // 4.0 -> 2.0, below id 2
  };
  heap.decrease_edges(edges.data(), edges.size(), 1.0);
  EXPECT_DOUBLE_EQ(heap.priority(0), 5.0);
  EXPECT_EQ(heap.pop_max(), 2u);
  EXPECT_EQ(heap.pop_max(), 1u);
}

TEST(AddressableMaxHeap, DecreaseEdgesEmptyRun) {
  AddressableMaxHeap heap(std::vector<double>{1.0, 2.0});
  heap.decrease_edges(static_cast<const Subproblem::LocalEdge*>(nullptr), 0, 1.0);
  EXPECT_EQ(heap.pop_max(), 1u);
}

/// Property test: decrease_edges (the round loop's fused CSR-edge decrease)
/// must be indistinguishable from the same updates applied one at a time
/// through decrease_weight_by — same priorities bit for bit, same pop order.
class DecreaseEdgesPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DecreaseEdgesPropertyTest, MatchesSequentialDecreases) {
  Rng rng(GetParam());
  const std::size_t n = 30 + rng.uniform_index(100);
  std::vector<double> priorities(n);
  for (double& p : priorities) p = rng.uniform(-10, 10);

  AddressableMaxHeap fused(priorities);
  AddressableMaxHeap sequential(priorities);

  std::size_t live = n;
  std::vector<Subproblem::LocalEdge> edges;
  while (live > 0) {
    // A random edge run over random ids (live and popped mixed in).
    edges.clear();
    const std::size_t run = rng.uniform_index(20);
    for (std::size_t i = 0; i < run; ++i) {
      edges.push_back({static_cast<std::uint32_t>(rng.uniform_index(n)),
                       static_cast<float>(rng.uniform(0, 5))});
    }
    const double scale = rng.uniform(0, 2);
    fused.decrease_edges(edges.data(), edges.size(), scale);
    for (const Subproblem::LocalEdge& edge : edges) {
      if (sequential.contains(edge.neighbor)) {
        sequential.decrease_weight_by(edge.neighbor,
                                      scale * static_cast<double>(edge.weight));
      }
    }
    for (std::uint32_t id = 0; id < n; ++id) {
      ASSERT_EQ(fused.priority(id), sequential.priority(id));
    }
    const auto expected = sequential.pop_max();
    ASSERT_EQ(fused.pop_max(), expected);
    --live;
  }
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, DecreaseEdgesPropertyTest,
                         ::testing::Values(11, 12, 13, 14, 15, 16, 17, 18));

}  // namespace
}  // namespace subsel::core
