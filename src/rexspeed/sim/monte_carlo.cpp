#include "rexspeed/sim/monte_carlo.hpp"

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <thread>
#include <vector>

namespace rexspeed::sim {

namespace {

/// Per-replication seed: a SplitMix64 hash of (base_seed, index) so that
/// streams are decorrelated regardless of how replications are scheduled.
std::uint64_t replication_seed(std::uint64_t base, std::size_t index) {
  std::uint64_t state = base + 0x9E3779B97F4A7C15ULL * (index + 1);
  return splitmix64(state);
}

/// Replications per chunk: the unit threads claim, and the unit of the
/// ordered merge.
constexpr std::size_t kChunk = 16;

struct ChunkAccumulators {
  stats::Welford time_overhead;
  stats::Welford energy_overhead;
  stats::Welford silent_errors;
  stats::Welford failstop_errors;
  stats::Welford attempts_per_pattern;
  stats::Welford corrupted_runs;
  stats::Welford corrupted_checkpoints;
};

}  // namespace

MonteCarloResult run_monte_carlo(const Simulator& simulator,
                                 const ExecutionPolicy& policy,
                                 const MonteCarloOptions& options) {
  if (options.replications == 0) {
    throw std::invalid_argument(
        "run_monte_carlo: need at least one replication");
  }
  // Threads claim fixed chunks of consecutive replications, each chunk
  // accumulates its replications in index order, and the chunks merge in
  // chunk order — so the floating-point result depends only on the
  // options, never on the thread count or on which thread ran what.
  const std::size_t chunk_count =
      (options.replications + kChunk - 1) / kChunk;
  unsigned threads = options.threads;
  if (threads == 0) {
    threads = std::max(1u, std::thread::hardware_concurrency());
  }
  threads = static_cast<unsigned>(std::min<std::size_t>(threads, chunk_count));

  std::vector<ChunkAccumulators> chunks(chunk_count);
  std::atomic<std::size_t> next{0};

  const auto worker = [&] {
    Xoshiro256 rng;
    for (;;) {
      const std::size_t chunk = next.fetch_add(1, std::memory_order_relaxed);
      if (chunk >= chunk_count) break;
      ChunkAccumulators& acc = chunks[chunk];
      const std::size_t end =
          std::min(options.replications, (chunk + 1) * kChunk);
      for (std::size_t rep = chunk * kChunk; rep < end; ++rep) {
        rng.reseed(replication_seed(options.base_seed, rep));
        const SimResult run =
            simulator.run(policy, options.total_work, rng, nullptr);
        acc.time_overhead.add(run.time_overhead());
        acc.energy_overhead.add(run.energy_overhead());
        acc.silent_errors.add(static_cast<double>(run.silent_errors));
        acc.failstop_errors.add(static_cast<double>(run.failstop_errors));
        acc.attempts_per_pattern.add(static_cast<double>(run.attempts) /
                                     static_cast<double>(run.patterns));
        acc.corrupted_runs.add(run.result_corrupted() ? 1.0 : 0.0);
        acc.corrupted_checkpoints.add(
            static_cast<double>(run.corrupted_checkpoints));
      }
    }
  };

  if (threads == 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (unsigned t = 0; t < threads; ++t) pool.emplace_back(worker);
    for (auto& th : pool) th.join();
  }

  MonteCarloResult result;
  for (const ChunkAccumulators& acc : chunks) {
    result.time_overhead.merge(acc.time_overhead);
    result.energy_overhead.merge(acc.energy_overhead);
    result.silent_errors.merge(acc.silent_errors);
    result.failstop_errors.merge(acc.failstop_errors);
    result.attempts_per_pattern.merge(acc.attempts_per_pattern);
    result.corrupted_runs.merge(acc.corrupted_runs);
    result.corrupted_checkpoints.merge(acc.corrupted_checkpoints);
  }
  result.replications = options.replications;
  result.time_ci =
      stats::mean_confidence_interval(result.time_overhead, options.confidence);
  result.energy_ci = stats::mean_confidence_interval(result.energy_overhead,
                                                     options.confidence);
  return result;
}

}  // namespace rexspeed::sim
