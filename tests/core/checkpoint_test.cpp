// Checkpoint/resume of the multi-round distributed greedy: a preempted run
// plus a resumed run must be indistinguishable from an uninterrupted one,
// mismatched configurations (seed, Δ schedule γ) must not resume, corrupt
// checkpoints must fall back to a clean restart — including on the
// out-of-core path, where a cooperative cancel mid-solve on a DiskGroundSet
// followed by a resume must be bit-identical to an uninterrupted in-memory
// run — and a crash injected mid-flush must leave the previous complete
// checkpoint byte-identical.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "../testing/temp_dir.h"
#include "../testing/test_instances.h"
#include "common/failpoint.h"
#include "core/distributed_greedy.h"
#include "graph/disk_ground_set.h"

namespace subsel::core {
namespace {

using subsel::testing::Instance;
using subsel::testing::random_instance;

class CheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = testing::process_temp_path("subsel_ckpt_test");
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string path(const std::string& name) const { return (dir_ / name).string(); }

  static std::string read_bytes(const std::string& file) {
    std::ifstream in(file, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
  }

  DistributedGreedyConfig make_config(std::uint64_t seed = 71) const {
    DistributedGreedyConfig config;
    config.num_machines = 8;
    config.num_rounds = 6;
    config.adaptive_partitioning = false;
    config.seed = seed;
    return config;
  }

  std::filesystem::path dir_;
};

TEST_F(CheckpointTest, PreemptThenResumeMatchesUninterruptedRun) {
  const Instance instance = random_instance(400, 5, 960);
  const auto ground_set = instance.ground_set();
  const PairwiseKernel kernel(ground_set, ObjectiveParams::from_alpha(0.9));

  const auto uninterrupted = distributed_greedy(kernel, 40, make_config());

  auto config = make_config();
  config.checkpoint_file = path("run.ckpt");
  config.stop_after_round = 3;
  const auto partial = distributed_greedy(kernel, 40, config);
  EXPECT_TRUE(partial.preempted);
  EXPECT_TRUE(partial.selected.empty());
  EXPECT_EQ(partial.rounds.size(), 3u);
  EXPECT_TRUE(std::filesystem::exists(config.checkpoint_file));

  config.stop_after_round = 0;
  const auto resumed = distributed_greedy(kernel, 40, config);
  EXPECT_EQ(resumed.resumed_rounds, 3u);
  EXPECT_EQ(resumed.rounds.size(), 3u);  // only the rounds it executed
  EXPECT_FALSE(resumed.preempted);
  EXPECT_EQ(resumed.selected, uninterrupted.selected);
  EXPECT_EQ(resumed.objective, uninterrupted.objective);
  // Completion removes the checkpoint.
  EXPECT_FALSE(std::filesystem::exists(config.checkpoint_file));
}

TEST_F(CheckpointTest, RepeatedPreemptionsStillConverge) {
  const Instance instance = random_instance(300, 4, 961);
  const auto ground_set = instance.ground_set();
  const PairwiseKernel kernel(ground_set, ObjectiveParams::from_alpha(0.9));
  const auto uninterrupted = distributed_greedy(kernel, 30, make_config(72));

  auto config = make_config(72);
  config.checkpoint_file = path("steps.ckpt");
  config.stop_after_round = 1;  // one round per invocation
  std::size_t invocations = 0;
  DistributedGreedyResult result;
  do {
    result = distributed_greedy(kernel, 30, config);
    ++invocations;
    ASSERT_LE(invocations, 10u) << "did not converge";
  } while (result.preempted);
  EXPECT_EQ(invocations, 6u);  // one per round
  EXPECT_EQ(result.selected, uninterrupted.selected);
}

TEST_F(CheckpointTest, MismatchedSeedIgnoresCheckpoint) {
  const Instance instance = random_instance(200, 4, 962);
  const auto ground_set = instance.ground_set();
  const PairwiseKernel kernel(ground_set, ObjectiveParams::from_alpha(0.9));

  auto config = make_config(73);
  config.checkpoint_file = path("mismatch.ckpt");
  config.stop_after_round = 2;
  (void)distributed_greedy(kernel, 20, config);
  ASSERT_TRUE(std::filesystem::exists(config.checkpoint_file));

  // Different seed -> different run; the stale checkpoint must be ignored
  // and the run must restart from round 1 (6 executed rounds, 0 resumed).
  auto other = make_config(74);
  other.checkpoint_file = path("mismatch.ckpt");
  const auto result = distributed_greedy(kernel, 20, other);
  EXPECT_EQ(result.resumed_rounds, 0u);
  EXPECT_EQ(result.rounds.size(), 6u);
  const auto reference = distributed_greedy(kernel, 20, make_config(74));
  EXPECT_EQ(result.selected, reference.selected);
}

TEST_F(CheckpointTest, CorruptCheckpointFallsBackToRestart) {
  const Instance instance = random_instance(200, 4, 963);
  const auto ground_set = instance.ground_set();
  const PairwiseKernel kernel(ground_set, ObjectiveParams::from_alpha(0.9));

  auto config = make_config(75);
  config.checkpoint_file = path("corrupt.ckpt");
  {
    std::ofstream out(config.checkpoint_file, std::ios::binary);
    out << "not a checkpoint";
  }
  const auto result = distributed_greedy(kernel, 20, config);
  EXPECT_EQ(result.resumed_rounds, 0u);
  EXPECT_EQ(result.selected.size(), 20u);
  const auto reference = distributed_greedy(kernel, 20, make_config(75));
  EXPECT_EQ(result.selected, reference.selected);
}

TEST_F(CheckpointTest, CheckpointingDoesNotChangeTheResult) {
  const Instance instance = random_instance(250, 5, 964);
  const auto ground_set = instance.ground_set();
  const PairwiseKernel kernel(ground_set, ObjectiveParams::from_alpha(0.9));
  const auto plain = distributed_greedy(kernel, 25, make_config(76));
  auto config = make_config(76);
  config.checkpoint_file = path("noop.ckpt");
  const auto checkpointed = distributed_greedy(kernel, 25, config);
  EXPECT_EQ(checkpointed.selected, plain.selected);
  EXPECT_EQ(checkpointed.objective, plain.objective);
}

TEST_F(CheckpointTest, DiskGroundSetCancelMidSolveThenResumeIsBitIdentical) {
  // The out-of-core mirror of PreemptThenResumeMatchesUninterruptedRun, with
  // the preemption fired cooperatively from the progress callback (what a
  // SIGTERM handler does) instead of a scheduled stop. The adjacency stays
  // on disk behind a deliberately tiny sharded cache with prefetch on, so
  // cancellation interleaves with paging and in-flight prefetch tasks.
  const Instance instance = random_instance(400, 5, 970);
  const auto memory_ground_set = instance.ground_set();
  const PairwiseKernel memory_kernel(memory_ground_set,
                                    ObjectiveParams::from_alpha(0.9));
  const std::string graph_path = path("disk_cancel.graph");
  instance.graph.save(graph_path);

  graph::DiskGroundSetConfig cache;
  cache.block_edges = 64;
  cache.max_cached_blocks = 6;
  cache.num_shards = 3;
  const graph::DiskGroundSet disk(graph_path, instance.utilities, cache);
  const PairwiseKernel disk_kernel(disk, ObjectiveParams::from_alpha(0.9));

  const auto uninterrupted =
      distributed_greedy(memory_kernel, 40, make_config(81));

  auto config = make_config(81);
  config.prefetch_depth = 2;
  config.checkpoint_file = path("disk_cancel.ckpt");
  config.progress = [&config](const ProgressEvent& event) {
    if (event.step >= 2) config.cancel.request_stop();
  };
  const auto cancelled = distributed_greedy(disk_kernel, 40, config);
  EXPECT_TRUE(cancelled.preempted);
  EXPECT_TRUE(cancelled.selected.empty());
  EXPECT_EQ(cancelled.rounds.size(), 2u);
  ASSERT_TRUE(std::filesystem::exists(config.checkpoint_file));

  // Re-arm the shared token and resume to completion on the same disk set.
  config.cancel.reset();
  config.progress = nullptr;
  const auto resumed = distributed_greedy(disk_kernel, 40, config);
  EXPECT_EQ(resumed.resumed_rounds, 2u);
  EXPECT_FALSE(resumed.preempted);
  EXPECT_EQ(resumed.selected, uninterrupted.selected);
  EXPECT_EQ(resumed.objective, uninterrupted.objective);
  EXPECT_FALSE(std::filesystem::exists(config.checkpoint_file));
  EXPECT_GT(disk.stats().misses + disk.stats().prefetch_loaded, 0u)
      << "the run must actually have paged from disk";
}

TEST_F(CheckpointTest, DiskAndMemoryCheckpointsAreInterchangeable) {
  // A checkpoint written by an out-of-core run must resume an in-memory run
  // (and vice versa): the fingerprint covers the run configuration, not the
  // ground-set backend, because the data is identical.
  const Instance instance = random_instance(300, 4, 971);
  const auto memory_ground_set = instance.ground_set();
  const PairwiseKernel memory_kernel(memory_ground_set,
                                    ObjectiveParams::from_alpha(0.9));
  const std::string graph_path = path("disk_swap.graph");
  instance.graph.save(graph_path);
  const graph::DiskGroundSet disk(graph_path, instance.utilities);
  const PairwiseKernel disk_kernel(disk, ObjectiveParams::from_alpha(0.9));

  const auto uninterrupted =
      distributed_greedy(memory_kernel, 30, make_config(82));

  auto config = make_config(82);
  config.checkpoint_file = path("disk_swap.ckpt");
  config.stop_after_round = 3;
  (void)distributed_greedy(disk_kernel, 30, config);  // disk run writes rounds 1-3
  config.stop_after_round = 0;
  const auto resumed = distributed_greedy(memory_kernel, 30, config);
  EXPECT_EQ(resumed.resumed_rounds, 3u);
  EXPECT_EQ(resumed.selected, uninterrupted.selected);
}

TEST_F(CheckpointTest, TornCheckpointWriteKeepsPreviousCheckpointIntact) {
  // A crash injected mid-flush (half the bytes written, no rename) must
  // leave the previously published checkpoint byte-identical, and a resume
  // from it must still converge to the uninterrupted answer.
  failpoint::disarm_all();
  const Instance instance = random_instance(400, 5, 972);
  const auto ground_set = instance.ground_set();
  const PairwiseKernel kernel(ground_set, ObjectiveParams::from_alpha(0.9));
  const auto uninterrupted = distributed_greedy(kernel, 40, make_config(83));

  auto config = make_config(83);
  config.checkpoint_file = path("torn.ckpt");
  config.stop_after_round = 2;
  (void)distributed_greedy(kernel, 40, config);  // publishes round 2
  ASSERT_TRUE(std::filesystem::exists(config.checkpoint_file));
  const std::string before_crash = read_bytes(config.checkpoint_file);
  ASSERT_FALSE(before_crash.empty());

  // Round 3 executes, but its checkpoint flush crashes halfway through.
  failpoint::arm_from_spec("checkpoint.write=nth(1)");
  config.stop_after_round = 1;
  const auto crashed = distributed_greedy(kernel, 40, config);
  failpoint::disarm_all();
  EXPECT_TRUE(crashed.preempted);
  EXPECT_EQ(crashed.resumed_rounds, 2u);

  // The published file is untouched; the torn half landed in the .tmp side.
  EXPECT_EQ(read_bytes(config.checkpoint_file), before_crash);
  const std::string tmp = config.checkpoint_file + ".tmp";
  ASSERT_TRUE(std::filesystem::exists(tmp));
  EXPECT_LT(std::filesystem::file_size(tmp), before_crash.size());

  // Resume: round 3's save was lost, so the run re-executes from round 3
  // and still lands exactly on the uninterrupted selection.
  config.stop_after_round = 0;
  const auto resumed = distributed_greedy(kernel, 40, config);
  EXPECT_EQ(resumed.resumed_rounds, 2u);
  EXPECT_EQ(resumed.selected, uninterrupted.selected);
  EXPECT_EQ(resumed.objective, uninterrupted.objective);
}

TEST_F(CheckpointTest, CheckpointEveryGatesSaves) {
  const Instance instance = random_instance(300, 4, 973);
  const auto ground_set = instance.ground_set();
  const PairwiseKernel kernel(ground_set, ObjectiveParams::from_alpha(0.9));
  const auto uninterrupted = distributed_greedy(kernel, 30, make_config(84));

  auto config = make_config(84);
  config.checkpoint_file = path("gated.ckpt");
  config.checkpoint_every = 3;  // only rounds 3 and (if not final) 6 persist

  // Rounds 1-2 complete but neither is a multiple of 3: nothing on disk.
  config.stop_after_round = 2;
  (void)distributed_greedy(kernel, 30, config);
  EXPECT_FALSE(std::filesystem::exists(config.checkpoint_file));

  // A fresh run through round 3 publishes the first gated checkpoint.
  config.stop_after_round = 3;
  (void)distributed_greedy(kernel, 30, config);
  ASSERT_TRUE(std::filesystem::exists(config.checkpoint_file));

  config.stop_after_round = 0;
  const auto resumed = distributed_greedy(kernel, 30, config);
  EXPECT_EQ(resumed.resumed_rounds, 3u);
  EXPECT_EQ(resumed.selected, uninterrupted.selected);
}

TEST_F(CheckpointTest, DegradedRunKeepsCheckpointAndStillReturnsValidSelection) {
  const Instance instance = random_instance(400, 5, 974);
  const auto ground_set = instance.ground_set();
  const PairwiseKernel kernel(ground_set, ObjectiveParams::from_alpha(0.9));
  const auto uninterrupted = distributed_greedy(kernel, 40, make_config(85));

  auto config = make_config(85);
  config.checkpoint_file = path("degraded.ckpt");
  config.stop_after_round = 2;
  (void)distributed_greedy(kernel, 40, config);  // checkpoint after round 2
  ASSERT_TRUE(std::filesystem::exists(config.checkpoint_file));

  // Resume under an already-expired deadline: the run must degrade — a VALID
  // size-k selection from the round-2 survivors — and keep the checkpoint so
  // an unhurried retry can still finish properly.
  config.stop_after_round = 0;
  config.deadline = Deadline::after_ms(0);
  const auto degraded = distributed_greedy(kernel, 40, config);
  EXPECT_TRUE(degraded.degraded);
  EXPECT_FALSE(degraded.degraded_reason.empty());
  EXPECT_FALSE(degraded.preempted);
  EXPECT_EQ(degraded.selected.size(), 40u);
  EXPECT_TRUE(std::filesystem::exists(config.checkpoint_file));

  // The unhurried retry resumes from the kept checkpoint and converges.
  config.deadline = Deadline::unlimited();
  const auto finished = distributed_greedy(kernel, 40, config);
  EXPECT_FALSE(finished.degraded);
  EXPECT_EQ(finished.resumed_rounds, 2u);
  EXPECT_EQ(finished.selected, uninterrupted.selected);
  EXPECT_FALSE(std::filesystem::exists(config.checkpoint_file));
}

TEST_F(CheckpointTest, DifferentDeltaGammaDoesNotResume) {
  // γ shapes every round's target, so a checkpoint written under one
  // schedule must not resume a run under another: the survivors of round 2
  // at γ = 0.5 are neither size nor selection of round 2 at γ = 0.75.
  const Instance instance = random_instance(600, 5, 966);
  const auto ground_set = instance.ground_set();
  const PairwiseKernel kernel(ground_set, ObjectiveParams::from_alpha(0.5));
  auto config = make_config(78);
  const auto uninterrupted = distributed_greedy(kernel, 60, config);

  auto half = make_config(78);
  half.delta_gamma = 0.5;
  half.checkpoint_file = path("gamma.ckpt");
  half.stop_after_round = 2;
  (void)distributed_greedy(kernel, 60, half);
  ASSERT_TRUE(std::filesystem::exists(half.checkpoint_file));

  config.checkpoint_file = half.checkpoint_file;
  const auto result = distributed_greedy(kernel, 60, config);
  EXPECT_EQ(result.resumed_rounds, 0u);
  EXPECT_EQ(result.rounds.size(), 6u);
  EXPECT_EQ(result.selected, uninterrupted.selected);
  EXPECT_EQ(result.objective, uninterrupted.objective);
}

}  // namespace
}  // namespace subsel::core
