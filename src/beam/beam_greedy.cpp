#include "beam/beam_greedy.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <span>
#include <stdexcept>

#include "common/atomic_util.h"
#include "common/log.h"
#include "common/rng.h"
#include "core/greedy.h"
#include "core/objective_kernel.h"
#include "dataflow/transforms.h"

namespace subsel::beam {
namespace {

using core::NodeId;
using dataflow::PCollection;
using dataflow::Pipeline;

/// Seeded, balanced-in-expectation partition assignment: partition(id) is a
/// uniform hash of (seed, round, id). This is what a dataflow shuffle can
/// compute locally on every worker (the in-memory Fisher-Yates split needs a
/// global view).
std::size_t partition_of(NodeId id, std::uint64_t seed, std::size_t round,
                         std::size_t num_partitions) {
  const std::uint64_t h = hash_combine(
      hash_combine(seed, static_cast<std::uint64_t>(round)),
      static_cast<std::uint64_t>(id));
  return static_cast<std::size_t>(h % num_partitions);
}

}  // namespace

core::DistributedGreedyResult beam_distributed_greedy(
    Pipeline& pipeline, const core::ObjectiveKernel& kernel, std::size_t k,
    const BeamGreedyConfig& config, const core::SelectionState* initial) {
  if (config.num_machines == 0 || config.num_rounds == 0) {
    throw std::invalid_argument(
        "beam_distributed_greedy: machines and rounds must be >= 1");
  }
  if (!std::isfinite(config.delta_gamma) || config.delta_gamma <= 0.0) {
    throw std::invalid_argument(
        "beam_distributed_greedy: delta_gamma must be finite and > 0");
  }
  const std::size_t n = kernel.ground_set().num_points();
  k = std::min(k, n);

  // Survivor source: every unassigned id (all ids when no bounding state).
  std::vector<NodeId> pre_selected;
  if (initial != nullptr) {
    if (initial->size() != n) {
      throw std::invalid_argument("beam_distributed_greedy: state size mismatch");
    }
    pre_selected = initial->selected_ids();
    if (pre_selected.size() > k) {
      throw std::invalid_argument(
          "beam_distributed_greedy: bounding selected more than k");
    }
  }
  const std::size_t k_open = k - pre_selected.size();

  PCollection<NodeId> survivors = dataflow::from_generator<NodeId>(
      pipeline, n, [](std::size_t i) { return static_cast<NodeId>(i); });
  if (initial != nullptr) {
    survivors = dataflow::filter(survivors, [initial](NodeId v) {
      return initial->is_unassigned(v);
    });
  }

  core::DistributedGreedyResult result;
  const std::size_t v0 = dataflow::count(survivors);
  const std::size_t partition_cap =
      (v0 + config.num_machines - 1) / std::max<std::size_t>(1, config.num_machines);

  // One reusable arena per concurrent shard worker, shared across all rounds
  // (and across invocations when the caller provides a pool).
  core::SubproblemArenaPool local_arena_pool;
  core::SubproblemArenaPool& arena_pool =
      config.arena_pool != nullptr ? *config.arena_pool : local_arena_pool;

  if (k_open > 0 && v0 > 0) {
    for (std::size_t round = 1; round <= config.num_rounds; ++round) {
      if (config.cancel.stop_requested()) {
        // Same contract as core::distributed_greedy: a cancelled run reports
        // `preempted` with no selection instead of a partial answer.
        result.preempted = true;
        LOG_INFO("beam_distributed_greedy: cancelled before round %zu", round);
        return result;
      }
      if (config.deadline.expired()) {
        // Same degradation contract as core::distributed_greedy: fall
        // through to the distributed subsample so the caller still gets a
        // valid size-k selection from the current survivors.
        result.degraded = true;
        result.degraded_reason = "deadline expired before round " +
                                 std::to_string(round) + " of " +
                                 std::to_string(config.num_rounds);
        LOG_INFO("beam_distributed_greedy: %s; returning best-so-far selection",
                 result.degraded_reason.c_str());
        break;
      }
      core::RoundStats stats;
      stats.round = round;
      stats.input_size = dataflow::count(survivors);

      std::size_t n_round = core::linear_delta(v0, config.num_rounds, round, k_open,
                                               config.delta_gamma);
      // Not std::clamp: a constrained round can leave fewer survivors than
      // k_open (hi < lo, which clamp forbids); the survivor count then wins.
      n_round = std::min(std::max(n_round, k_open), stats.input_size);
      stats.target_size = n_round;

      std::size_t m_round = config.num_machines;
      if (config.adaptive_partitioning) {
        m_round =
            (n_round + partition_cap - 1) / std::max<std::size_t>(1, partition_cap);
        m_round = std::clamp<std::size_t>(m_round, 1, config.num_machines);
      }
      m_round = std::min(m_round, stats.input_size);
      stats.num_partitions = m_round;

      // Shuffle ids into partitions, then run Algorithm 2 inside each
      // partition's group. The subproblem materialization is the worker's
      // working set and is charged against the memory budget.
      const std::uint64_t seed = config.seed;
      auto keyed = dataflow::map<std::pair<std::size_t, NodeId>>(
          survivors, [seed, round, m_round](NodeId v) {
            return std::pair<std::size_t, NodeId>{
                partition_of(v, seed, round, m_round), v};
          });
      auto partitions = dataflow::group_by_key(keyed);

      const std::size_t per_partition_target = (n_round + m_round - 1) / m_round;
      std::atomic<std::size_t> peak_bytes{0};
      std::atomic<std::size_t> peak_state_bytes{0};
      survivors = dataflow::flat_map<NodeId>(
          partitions, [&peak_bytes, &peak_state_bytes, initial, &kernel,
                       per_partition_target, &pipeline,
                       &arena_pool](const auto& row, auto emit) {
            core::SubproblemArenaPool::Lease arena(arena_pool);
            core::GreedyResult local = core::solve_partition(
                kernel, std::span<const NodeId>(row.second), per_partition_target,
                initial, *arena);
            // The worker's working set: the subproblem CSR plus any flat
            // kernel state behind it.
            pipeline.charge_shard_bytes(local.materialized_bytes +
                                        local.kernel_state_bytes);
            atomic_fetch_max(peak_bytes, local.materialized_bytes);
            atomic_fetch_max(peak_state_bytes, local.kernel_state_bytes);
            for (NodeId v : local.selected) emit(v);
          });
      stats.peak_partition_bytes = peak_bytes.load();
      stats.peak_state_bytes = peak_state_bytes.load();
      stats.output_size = dataflow::count(survivors);
      result.rounds.push_back(stats);
      LOG_DEBUG("beam_distributed_greedy round %zu: %zu -> %zu (m=%zu, target %zu)",
                round, stats.input_size, stats.output_size, m_round, n_round);
      if (config.progress) {
        config.progress(ProgressEvent{"round", round, config.num_rounds,
                                      stats.output_size});
      }
    }

    // Distributed subsample to k_open: give every survivor a hashed priority
    // and keep the k_open largest via one distributed threshold — the driver
    // never materializes more than the final result.
    const std::size_t out_size = dataflow::count(survivors);
    if (out_size > k_open) {
      const std::uint64_t salt = hash_combine(config.seed, 0x55bULL);
      auto priorities = dataflow::map<double>(survivors, [salt](NodeId v) {
        return hash_to_unit(hash_combine(salt, static_cast<std::uint64_t>(v)));
      });
      const double threshold = dataflow::kth_largest_distributed(priorities, k_open);
      survivors = dataflow::filter(survivors, [salt, threshold](NodeId v) {
        return hash_to_unit(hash_combine(salt, static_cast<std::uint64_t>(v))) >=
               threshold;
      });
      // Hash ties above the threshold can keep a few extra ids; trim
      // deterministically by id.
      auto final_ids = dataflow::to_vector(survivors);
      if (final_ids.size() > k_open) {
        std::sort(final_ids.begin(), final_ids.end());
        final_ids.resize(k_open);
      }
      result.selected = std::move(final_ids);
    } else {
      result.selected = dataflow::to_vector(survivors);
    }
  }

  result.selected.insert(result.selected.end(), pre_selected.begin(),
                         pre_selected.end());
  std::sort(result.selected.begin(), result.selected.end());

  result.objective =
      kernel.evaluate(std::span<const NodeId>(result.selected), config.pool);
  return result;
}

}  // namespace subsel::beam
