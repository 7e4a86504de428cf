#pragma once

#include <cstddef>
#include <optional>

#include "rexspeed/core/model_params.hpp"
#include "rexspeed/sim/fault_injector.hpp"
#include "rexspeed/sim/policy.hpp"
#include "rexspeed/sim/rng.hpp"
#include "rexspeed/sim/trace.hpp"

namespace rexspeed::sim {

/// Simulator knobs beyond the analytical model.
struct SimulatorOptions {
  /// Probability that the verification detects a silent error. The paper
  /// assumes guaranteed verifications (recall 1); lowering this models the
  /// *partial* verifications of the paper's related work [Cavelan et al.,
  /// ICPP'15] and the silent-data-corruption risk they introduce: a
  /// missed error is committed by the following checkpoint and silently
  /// corrupts the final result (`tests/sim/test_verification_recall.cpp`
  /// holds that risk to the closed-form corruption probability).
  double verification_recall = 1.0;
  /// The paper assumes fail-stop errors never strike during checkpoint or
  /// recovery (§5.1). Setting this true drops that assumption: a
  /// fail-stop during a checkpoint voids it (recovery + full re-execution
  /// of the attempt) and a fail-stop during recovery restarts the
  /// recovery. `IoVulnerability.DriftRisesWithIoExposure`
  /// (`tests/sim/test_io_vulnerability.cpp`) shows how much the assumption
  /// flatters the model's predictions as λf·(C+R) grows.
  bool io_vulnerable = false;
};

/// Aggregate outcome of one simulated application run.
struct SimResult {
  double makespan_s = 0.0;    ///< total wall-clock time
  double energy_mws = 0.0;    ///< total energy (mW·s)
  double total_work = 0.0;    ///< work units completed
  std::size_t patterns = 0;   ///< patterns committed
  std::size_t attempts = 0;   ///< pattern attempts (≥ patterns)
  std::size_t silent_errors = 0;   ///< silent errors *detected*
  std::size_t failstop_errors = 0;
  std::size_t recoveries = 0;
  std::size_t checkpoints = 0;
  /// Checkpoints that committed undetected silent corruption (only
  /// possible with verification_recall < 1).
  std::size_t corrupted_checkpoints = 0;

  /// True when at least one corrupted checkpoint tainted the run's output.
  [[nodiscard]] bool result_corrupted() const noexcept {
    return corrupted_checkpoints > 0;
  }

  /// Wall-clock seconds per unit of work — the quantity T(W,σ1,σ2)/W
  /// estimates in expectation.
  [[nodiscard]] double time_overhead() const noexcept {
    return makespan_s / total_work;
  }
  /// Energy per unit of work — the quantity E(W,σ1,σ2)/W estimates.
  [[nodiscard]] double energy_overhead() const noexcept {
    return energy_mws / total_work;
  }
};

/// Fault-injection simulator of the paper's execution model (§2.2 and
/// Figure 1): a divisible application is cut into periodic patterns of
/// `W` work followed by a verification and a checkpoint; silent errors are
/// caught by the verification and trigger recovery + re-execution at the
/// policy's re-execution speed; fail-stop errors interrupt immediately.
///
/// Faithfulness notes (matching the analytical model exactly):
///  * silent errors strike during computation; fail-stop errors strike
///    during computation and verification, never during I/O;
///  * the verification is perfect (every silent error is detected);
///  * recovery is also performed before the re-execution of the very first
///    pattern (rollback to initial data has the same cost R);
///  * energy integrates Pidle + κσ³ over compute/verify segments and
///    Pidle + Pio over checkpoint/recovery segments.
class Simulator {
 public:
  explicit Simulator(core::ModelParams params);

  /// Simulator with a custom injector (e.g. Weibull arrivals) and/or
  /// non-default options (e.g. partial verification).
  Simulator(core::ModelParams params, FaultInjector injector,
            SimulatorOptions options = {});

  /// Runs `total_work` units under `policy`. When `trace` is non-null the
  /// segment timeline is recorded into it (bounded by its capacity).
  [[nodiscard]] SimResult run(const ExecutionPolicy& policy,
                              double total_work, Xoshiro256& rng,
                              Trace* trace = nullptr) const;

  [[nodiscard]] const core::ModelParams& params() const noexcept {
    return params_;
  }

  [[nodiscard]] const SimulatorOptions& options() const noexcept {
    return options_;
  }

 private:
  core::ModelParams params_;
  FaultInjector injector_;
  SimulatorOptions options_;
};

}  // namespace rexspeed::sim
