// Fault-injection stress matrix: every failpoint site — alone and in pairs —
// armed with probabilistic schedules while the full out-of-core pipeline
// solves on an 8-thread pool. The contract under fire: no crash, no
// deadlock, the disk-cache residency budget holds, and every run ends in
// either a valid selection or one of the documented typed errors.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "../testing/temp_dir.h"
#include "common/failpoint.h"
#include "common/thread_pool.h"
#include "core/distributed_greedy.h"
#include "core/selection_pipeline.h"
#include "data/datasets.h"
#include "graph/disk_ground_set.h"

namespace subsel {
namespace {

class FaultInjectionStressTest : public ::testing::Test {
 protected:
  void SetUp() override {
    failpoint::disarm_all();
    dir_ = testing::process_temp_path("subsel_fault_stress_test");
    std::filesystem::create_directories(dir_);
    dataset_ = data::toy_dataset(600, 10, 55);
    graph_path_ = (dir_ / "graph.bin").string();
    dataset_.graph.save(graph_path_);
  }
  void TearDown() override {
    failpoint::disarm_all();
    std::filesystem::remove_all(dir_);
  }

  static graph::DiskGroundSetConfig tiny_cache() {
    graph::DiskGroundSetConfig config;
    config.block_edges = 128;
    config.max_cached_blocks = 8;
    config.num_shards = 4;
    return config;
  }

  /// One full out-of-core solve under whatever faults are armed. Returns a
  /// label of the outcome; anything other than success or a documented typed
  /// error fails the test at the call site.
  std::string run_solve_under_faults(std::uint64_t seed) {
    ThreadPool pool(8);
    try {
      const graph::DiskGroundSet disk(graph_path_, dataset_.utilities,
                                      tiny_cache());
      core::DistributedGreedyConfig config;
      config.num_machines = 8;
      config.num_rounds = 3;
      config.seed = seed;
      config.pool = &pool;
      config.prefetch_depth = 2;
      config.checkpoint_file = (dir_ / "stress.ckpt").string();
      const auto result = core::distributed_greedy(
          core::PairwiseKernel(disk, core::ObjectiveParams::from_alpha(0.9)), 60, config);

      // Success: the selection must be fully valid and the cache budget
      // must have held even while faults were firing.
      EXPECT_EQ(result.selected.size(), 60u);
      EXPECT_TRUE(
          std::is_sorted(result.selected.begin(), result.selected.end()));
      EXPECT_TRUE(std::adjacent_find(result.selected.begin(),
                                     result.selected.end()) ==
                  result.selected.end());
      for (const core::NodeId id : result.selected) {
        EXPECT_LT(static_cast<std::size_t>(id), disk.num_points());
      }
      EXPECT_LE(disk.stats().resident_blocks_high_water,
                tiny_cache().max_cached_blocks);
      return "ok";
    } catch (const graph::DiskFormatError&) {
      return "disk-error";  // documented typed outcome
    } catch (const TaskError&) {
      return "task-error";  // documented typed outcome
    } catch (const failpoint::FailpointError&) {
      return "failpoint-error";  // documented typed outcome
    }
    // Any other exception type escapes and fails the test — by design.
  }

  std::filesystem::path dir_;
  data::Dataset dataset_;
  std::string graph_path_;
};

TEST_F(FaultInjectionStressTest, EverySiteAloneEndsInValidResultOrTypedError) {
  const std::vector<std::string> specs = {
      "disk.open=prob(0.2,101)",       "disk.pread=prob(0.05,102)",
      "disk.prefetch=prob(0.3,103)",   "pool.task=prob(0.002,104)",
      "checkpoint.write=prob(0.5,105)", "arena.alloc=prob(0.01,106)",
  };
  for (std::size_t i = 0; i < specs.size(); ++i) {
    SCOPED_TRACE(specs[i]);
    failpoint::arm_from_spec(specs[i]);
    const std::string outcome = run_solve_under_faults(900 + i);
    EXPECT_TRUE(outcome == "ok" || outcome == "disk-error" ||
                outcome == "task-error" || outcome == "failpoint-error")
        << outcome;
    failpoint::disarm_all();
  }
}

TEST_F(FaultInjectionStressTest, SitePairsEndInValidResultOrTypedError) {
  // Cross-layer pairs: a disk-layer fault and a compute-layer fault firing
  // in the same run must still never crash, hang, or corrupt results.
  const std::vector<std::string> specs = {
      "disk.pread=prob(0.05,201);pool.task=prob(0.002,202)",
      "disk.prefetch=prob(0.3,203);checkpoint.write=prob(0.5,204)",
      "disk.pread=prob(0.05,205);arena.alloc=prob(0.01,206)",
      "pool.task=prob(0.002,207);checkpoint.write=prob(0.5,208)",
      "disk.open=prob(0.1,209);disk.pread=prob(0.05,210)",
  };
  for (std::size_t i = 0; i < specs.size(); ++i) {
    SCOPED_TRACE(specs[i]);
    failpoint::arm_from_spec(specs[i]);
    const std::string outcome = run_solve_under_faults(950 + i);
    EXPECT_TRUE(outcome == "ok" || outcome == "disk-error" ||
                outcome == "task-error" || outcome == "failpoint-error")
        << outcome;
    failpoint::disarm_all();
  }
}

TEST_F(FaultInjectionStressTest, TransientOnlyFaultsStillMatchFaultFreeRun) {
  // Sparse pread faults are absorbed by the bounded-backoff retry loop
  // (promotion to kIo needs 6 consecutive failing hits for one read — odds
  // ~1e-6 at this rate) and prefetch faults only degrade hints: the
  // selection must be bit-identical to the fault-free run on the same seed.
  const auto reference = [&] {
    const graph::DiskGroundSet disk(graph_path_, dataset_.utilities,
                                    tiny_cache());
    core::DistributedGreedyConfig config;
    config.num_machines = 8;
    config.num_rounds = 3;
    config.seed = 992;
    return core::distributed_greedy(
        core::PairwiseKernel(disk, core::ObjectiveParams::from_alpha(0.9)), 60, config);
  }();

  failpoint::arm_from_spec("disk.pread=prob(0.1,300);disk.prefetch=prob(0.5,301)");
  const graph::DiskGroundSet faulty(graph_path_, dataset_.utilities,
                                    tiny_cache());
  core::DistributedGreedyConfig config;
  config.num_machines = 8;
  config.num_rounds = 3;
  config.seed = 992;
  const auto under_faults = core::distributed_greedy(
      core::PairwiseKernel(faulty, core::ObjectiveParams::from_alpha(0.9)), 60, config);
  failpoint::disarm_all();

  EXPECT_EQ(under_faults.selected, reference.selected);
  EXPECT_EQ(under_faults.objective, reference.objective);
  EXPECT_GT(faulty.stats().read_retries, 0u);
}

}  // namespace
}  // namespace subsel
