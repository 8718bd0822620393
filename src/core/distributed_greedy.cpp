#include "core/distributed_greedy.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <filesystem>
#include <stdexcept>

#include "common/atomic_file.h"
#include "common/atomic_util.h"
#include "common/log.h"
#include "common/rng.h"
#include "common/serialize.h"

namespace subsel::core {
namespace {

constexpr std::uint64_t kCheckpointMagic = 0x53554253454C4350ULL;  // "SUBSELCP"
/// Layout version after the magic. v2 added this field (the unversioned
/// original layout is retroactively v1; its files are rejected by the
/// version check and fall back to a clean restart, which is always safe —
/// checkpoints are ephemeral and removed on completion).
constexpr std::uint32_t kCheckpointVersion = 2;

ThreadPool& pool_or_global(ThreadPool* pool) {
  return pool != nullptr ? *pool : global_thread_pool();
}

/// Splits `ids` (already shuffled) into `parts` nearly-equal contiguous
/// slices — a balanced uniform random partition.
std::vector<std::vector<NodeId>> split_balanced(const std::vector<NodeId>& ids,
                                                std::size_t parts) {
  std::vector<std::vector<NodeId>> partitions(parts);
  const std::size_t base = ids.size() / parts;
  const std::size_t extra = ids.size() % parts;
  std::size_t cursor = 0;
  for (std::size_t p = 0; p < parts; ++p) {
    const std::size_t count = base + (p < extra ? 1 : 0);
    partitions[p].assign(ids.begin() + static_cast<std::ptrdiff_t>(cursor),
                         ids.begin() + static_cast<std::ptrdiff_t>(cursor + count));
    cursor += count;
  }
  return partitions;
}

/// Run-identity key a checkpoint must match to be resumable: everything
/// that shapes the round trajectory (keeping the ground set itself the same
/// is the caller's contract).
std::uint64_t run_fingerprint(std::size_t n, std::size_t v0, std::size_t k_open,
                              const DistributedGreedyConfig& config,
                              const ObjectiveKernel& kernel) {
  std::uint64_t h = 0x5ca1ab1e;
  auto mix = [&h](std::uint64_t value) { h = hash_combine(h, value); };
  mix(n);
  mix(v0);
  mix(k_open);
  mix(config.num_machines);
  mix(config.num_rounds);
  mix(config.adaptive_partitioning ? 1 : 0);
  mix(config.seed);
  mix(std::bit_cast<std::uint64_t>(config.delta_gamma));
  // The objective's full identity — name AND parameters: a checkpoint
  // written under one objective configuration must never resume a run under
  // another (rounds selected under different objectives would be silently
  // blended). FNV-1a, not std::hash, because checkpoint files outlive the
  // process.
  std::uint64_t name_hash = 0xcbf29ce484222325ULL;
  for (const char c : kernel.name()) {
    name_hash = (name_hash ^ static_cast<std::uint8_t>(c)) * 0x100000001b3ULL;
  }
  mix(name_hash);
  mix(kernel.config_fingerprint());
  // Constrained runs select under different budgets, so their checkpoints
  // must never cross-resume with unconstrained ones (or with other
  // constraint configurations). Unconstrained runs mix NOTHING here — their
  // fingerprints, and hence existing checkpoints, are unchanged.
  if (config.constraints != nullptr && !config.constraints->empty()) {
    mix(config.constraints->fingerprint());
  }
  return h;
}

void save_checkpoint(const std::string& path, std::uint64_t fingerprint,
                     std::size_t completed_round,
                     const std::vector<NodeId>& survivors) {
  // Serialize fully in memory, then publish crash-consistently: write-temp,
  // fsync, atomic rename, fsync the directory. A kill at any instant leaves
  // either the previous complete checkpoint or this one — never a torn file.
  // A failed write (including the injected "checkpoint.write" crash) keeps
  // the run going on the previous checkpoint; persistence is best-effort,
  // correctness of what IS on disk is not.
  BufferWriter writer;
  writer.write_pod(kCheckpointMagic);
  writer.write_pod(kCheckpointVersion);
  writer.write_pod(fingerprint);
  writer.write_pod<std::uint64_t>(completed_round);
  writer.write_vector(survivors);
  std::string error;
  if (!write_file_durable(path, writer.bytes().data(), writer.bytes().size(),
                          &error)) {
    LOG_WARN("checkpoint write failed (%s); continuing without", error.c_str());
  }
}

/// Returns the completed-round count and restores `survivors`, or 0 when no
/// usable checkpoint exists.
std::size_t load_checkpoint(const std::string& path, std::uint64_t fingerprint,
                            std::vector<NodeId>& survivors) {
  if (!std::filesystem::exists(path)) return 0;
  try {
    BinaryReader reader(path);
    if (reader.read_pod<std::uint64_t>() != kCheckpointMagic) return 0;
    if (reader.read_pod<std::uint32_t>() != kCheckpointVersion) {
      LOG_WARN("checkpoint %s has an unsupported layout version; ignoring",
               path.c_str());
      return 0;
    }
    if (reader.read_pod<std::uint64_t>() != fingerprint) {
      LOG_WARN("checkpoint %s belongs to a different run configuration; ignoring",
               path.c_str());
      return 0;
    }
    const auto completed = reader.read_pod<std::uint64_t>();
    std::vector<NodeId> restored = reader.read_vector<NodeId>();
    survivors = std::move(restored);
    return static_cast<std::size_t>(completed);
  } catch (const std::exception& e) {
    LOG_WARN("checkpoint read failed (%s); restarting from round 1", e.what());
    return 0;
  }
}

}  // namespace

std::size_t linear_delta(std::size_t v0, std::size_t rounds, std::size_t round,
                         std::size_t k, double gamma) {
  if (v0 <= k) return k;
  const double remaining = static_cast<double>(rounds - round);
  const double span = static_cast<double>(v0 - k) / static_cast<double>(rounds);
  // Capped at |V| before the cast: a γ > 1 asks for more than the data, and a
  // large enough one would not fit in size_t.
  const double target = std::min(std::ceil(gamma * remaining * span),
                                  static_cast<double>(v0 - k));
  return static_cast<std::size_t>(target) + k;
}

DistributedGreedyResult distributed_greedy(const ObjectiveKernel& kernel, std::size_t k,
                                           const DistributedGreedyConfig& config,
                                           const SelectionState* initial) {
  if (config.num_machines == 0 || config.num_rounds == 0) {
    throw std::invalid_argument("distributed_greedy: machines and rounds must be >= 1");
  }
  if (!std::isfinite(config.delta_gamma) || config.delta_gamma <= 0.0) {
    throw std::invalid_argument(
        "distributed_greedy: delta_gamma must be finite and > 0");
  }
  const GroundSet& ground_set = kernel.ground_set();
  const std::size_t n = ground_set.num_points();
  k = std::min(k, n);

  // Open budget and surviving ground set, after any bounding pre-pass.
  std::vector<NodeId> pre_selected;
  std::vector<NodeId> survivors;
  if (initial != nullptr) {
    if (initial->size() != n) {
      throw std::invalid_argument("distributed_greedy: state size mismatch");
    }
    pre_selected = initial->selected_ids();
    if (pre_selected.size() > k) {
      throw std::invalid_argument("distributed_greedy: bounding selected more than k");
    }
    survivors = initial->unassigned_ids();
  } else {
    survivors.resize(n);
    for (std::size_t i = 0; i < n; ++i) survivors[i] = static_cast<NodeId>(i);
  }
  const std::size_t k_open = k - pre_selected.size();

  DistributedGreedyResult result;
  const std::size_t v0 = survivors.size();
  const std::size_t partition_cap =
      (v0 + config.num_machines - 1) / std::max<std::size_t>(1, config.num_machines);

  const std::uint64_t fingerprint = run_fingerprint(n, v0, k_open, config, kernel);
  std::size_t first_round = 1;
  if (!config.checkpoint_file.empty()) {
    const std::size_t completed =
        load_checkpoint(config.checkpoint_file, fingerprint, survivors);
    if (completed > 0) {
      first_round = completed + 1;
      result.resumed_rounds = completed;
      LOG_INFO("distributed_greedy: resumed after round %zu (%zu survivors)",
               completed, survivors.size());
    }
  }

  ThreadPool& workers = pool_or_global(config.pool);

  // Per-worker reusable arenas: subproblem CSR, scatter map, and heap storage
  // persist across every partition of every round instead of being
  // reallocated per partition — the round loop's only steady-state
  // allocations are the partition id lists themselves. A caller-provided
  // pool (api::SolverContext) extends the reuse across invocations.
  SubproblemArenaPool local_arena_pool;
  SubproblemArenaPool& arena_pool =
      config.arena_pool != nullptr ? *config.arena_pool : local_arena_pool;

  if (k_open > 0 && v0 > 0) {
    std::size_t executed = 0;
    for (std::size_t round = first_round; round <= config.num_rounds; ++round) {
      if (config.cancel.stop_requested()) {
        result.preempted = true;
        LOG_INFO("distributed_greedy: cancelled before round %zu", round);
        return result;
      }
      if (config.deadline.expired()) {
        // Graceful degradation, not preemption: fall through to the final
        // subsample so the caller still gets a VALID size-k selection from
        // the current survivors. The checkpoint is kept — an unhurried later
        // invocation can resume and finish the remaining rounds properly.
        result.degraded = true;
        result.degraded_reason = "deadline expired before round " +
                                 std::to_string(round) + " of " +
                                 std::to_string(config.num_rounds);
        LOG_INFO("distributed_greedy: %s; returning best-so-far selection",
                 result.degraded_reason.c_str());
        break;
      }
      RoundStats stats;
      stats.round = round;
      stats.input_size = survivors.size();

      std::size_t n_round =
          linear_delta(v0, config.num_rounds, round, k_open, config.delta_gamma);
      // Not std::clamp: a constrained round can leave fewer survivors than
      // k_open (hi < lo, which clamp forbids); the survivor count then wins.
      n_round = std::min(std::max(n_round, k_open), survivors.size());
      stats.target_size = n_round;

      std::size_t m_round = config.num_machines;
      if (config.adaptive_partitioning) {
        m_round = (n_round + partition_cap - 1) / std::max<std::size_t>(1, partition_cap);
        m_round = std::clamp<std::size_t>(m_round, 1, config.num_machines);
      }
      m_round = std::min(m_round, survivors.size());
      stats.num_partitions = m_round;

      // Per-round RNG stream: a resumed run reproduces the exact shuffles an
      // uninterrupted run would have drawn from this round on.
      Rng rng(hash_combine(config.seed, round));

      // Random balanced partition, with the optional worst-case override in
      // round 1 (Section 6.4): one partition is exactly the forced set.
      std::vector<std::vector<NodeId>> partitions;
      if (round == 1 && config.forced_first_partition.has_value() &&
          m_round >= 2) {
        const auto& forced = *config.forced_first_partition;
        std::vector<std::uint8_t> is_forced(n, 0);
        for (NodeId v : forced) is_forced[static_cast<std::size_t>(v)] = 1;
        std::vector<NodeId> rest;
        rest.reserve(survivors.size());
        for (NodeId v : survivors) {
          if (is_forced[static_cast<std::size_t>(v)] == 0) rest.push_back(v);
        }
        rng.shuffle(std::span<NodeId>(rest));
        partitions = split_balanced(rest, m_round - 1);
        partitions.insert(partitions.begin(), forced);
      } else {
        rng.shuffle(std::span<NodeId>(survivors));
        partitions = split_balanced(survivors, m_round);
      }

      const std::size_t per_partition_target =
          (n_round + partitions.size() - 1) / partitions.size();

      // Page the front of the round's partition plan in ahead of the solves:
      // the prefetch tasks enter the pool queue before the solve tasks, so an
      // out-of-core ground set performs its block I/O batched and in file
      // order. One combined call, so the backend deduplicates and
      // budget-caps across the whole head instead of letting partition p+1's
      // prefetch evict partition p's freshly paged blocks. Purely a cache
      // hint — selections are unaffected.
      const std::size_t prefetch_parts =
          std::min(config.prefetch_depth, partitions.size());
      if (prefetch_parts == 1) {
        ground_set.prefetch(std::span<const NodeId>(partitions[0]), &workers);
      } else if (prefetch_parts > 1) {
        std::size_t head_size = 0;
        for (std::size_t p = 0; p < prefetch_parts; ++p) {
          head_size += partitions[p].size();
        }
        std::vector<NodeId> plan_head;
        plan_head.reserve(head_size);
        for (std::size_t p = 0; p < prefetch_parts; ++p) {
          plan_head.insert(plan_head.end(), partitions[p].begin(),
                           partitions[p].end());
        }
        ground_set.prefetch(std::span<const NodeId>(plan_head), &workers);
      }

      std::vector<std::vector<NodeId>> partition_results(partitions.size());
      std::atomic<std::size_t> peak_bytes{0};
      std::atomic<std::size_t> peak_state_bytes{0};
      workers.parallel_for(partitions.size(), [&](std::size_t p) {
        SubproblemArenaPool::Lease arena(arena_pool);
        GreedyResult local =
            solve_partition(kernel, partitions[p], per_partition_target, initial,
                            *arena, nullptr, nullptr, config.constraints);
        atomic_fetch_max(peak_bytes, local.materialized_bytes);
        atomic_fetch_max(peak_state_bytes, local.kernel_state_bytes);
        partition_results[p] = std::move(local.selected);
      });
      stats.peak_partition_bytes = peak_bytes.load();
      stats.peak_state_bytes = peak_state_bytes.load();

      survivors.clear();
      for (auto& part : partition_results) {
        survivors.insert(survivors.end(), part.begin(), part.end());
      }
      stats.output_size = survivors.size();
      result.rounds.push_back(stats);
      LOG_DEBUG("distributed_greedy round %zu: %zu -> %zu (m=%zu, target %zu)", round,
                stats.input_size, stats.output_size, m_round, n_round);

      const std::size_t checkpoint_every =
          std::max<std::size_t>(1, config.checkpoint_every);
      if (!config.checkpoint_file.empty() && round < config.num_rounds &&
          round % checkpoint_every == 0) {
        save_checkpoint(config.checkpoint_file, fingerprint, round, survivors);
      }
      if (config.progress) {
        config.progress(ProgressEvent{"round", round, config.num_rounds,
                                      survivors.size()});
      }
      ++executed;
      if (config.stop_after_round != 0 && executed >= config.stop_after_round &&
          round < config.num_rounds) {
        result.preempted = true;
        LOG_INFO("distributed_greedy: preempted after round %zu", round);
        return result;
      }
    }

    const bool constrained =
        config.constraints != nullptr && !config.constraints->empty();
    if (!constrained) {
      // Rounding can leave up to m_r extra points; subsample uniformly
      // (Alg. 6). Seeded independently of the per-round streams.
      if (survivors.size() > k_open) {
        Rng rng(hash_combine(config.seed, config.num_rounds + 1));
        rng.shuffle(std::span<NodeId>(survivors));
        survivors.resize(k_open);
      }
    } else {
      // Per-partition trackers only see their own accepts, so the surviving
      // union can over-commit a budget or group cap globally. One constrained
      // greedy pass over the union (conditioned on any pre-selected points,
      // which also seed its tracker) enforces every budget exactly; this
      // replaces the uniform rounding subsample and may return fewer than
      // k_open points when no feasible candidate remains.
      SubproblemArenaPool::Lease arena(arena_pool);
      GreedyResult final_solve =
          solve_partition(kernel, survivors, k_open, initial, *arena, nullptr,
                          nullptr, config.constraints);
      survivors = std::move(final_solve.selected);
    }
  } else {
    survivors.clear();
  }

  // A degraded (deadline-cut) run keeps its checkpoint: the best-so-far
  // answer was served, but the run itself is resumable to full quality.
  if (!config.checkpoint_file.empty() && !result.degraded) {
    std::error_code error;
    std::filesystem::remove(config.checkpoint_file, error);
  }

  result.selected = std::move(survivors);
  result.selected.insert(result.selected.end(), pre_selected.begin(),
                         pre_selected.end());
  std::sort(result.selected.begin(), result.selected.end());

  result.objective =
      kernel.evaluate(std::span<const NodeId>(result.selected), config.pool);
  return result;
}

}  // namespace subsel::core
