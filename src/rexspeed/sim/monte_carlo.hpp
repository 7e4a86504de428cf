#pragma once

#include <cstddef>
#include <cstdint>

#include "rexspeed/sim/simulator.hpp"
#include "rexspeed/stats/summary.hpp"
#include "rexspeed/stats/welford.hpp"

namespace rexspeed::sim {

/// Options for a replicated Monte-Carlo experiment.
struct MonteCarloOptions {
  std::size_t replications = 1000;
  /// Work units per replication; larger values tighten the per-replication
  /// estimate of the overheads (more patterns averaged per run).
  double total_work = 1e6;
  std::uint64_t base_seed = 0x5EED0001;
  /// 0 = use hardware_concurrency().
  unsigned threads = 0;
  double confidence = 0.95;
};

/// Aggregated replication statistics.
struct MonteCarloResult {
  stats::Welford time_overhead;
  stats::Welford energy_overhead;
  stats::Welford silent_errors;
  stats::Welford failstop_errors;
  stats::Welford attempts_per_pattern;
  /// Indicator (0/1) per replication that at least one corrupted
  /// checkpoint was committed — its mean estimates the probability of a
  /// silently corrupted campaign (non-zero only with recall < 1).
  stats::Welford corrupted_runs;
  /// Corrupted checkpoints committed per replication.
  stats::Welford corrupted_checkpoints;
  std::size_t replications = 0;

  stats::ConfidenceInterval time_ci;
  stats::ConfidenceInterval energy_ci;
};

/// Runs `options.replications` independent simulations of `policy` and
/// aggregates the observed time/energy overheads. Replications are
/// distributed over a thread pool; replication `i` always uses the seed
/// derived from (base_seed, i) and the statistics merge in replication
/// order, so results are bit-identical at any thread count — a property
/// the determinism tests assert.
[[nodiscard]] MonteCarloResult run_monte_carlo(
    const Simulator& simulator, const ExecutionPolicy& policy,
    const MonteCarloOptions& options = {});

}  // namespace rexspeed::sim
