#pragma once

#include <vector>

#include "rexspeed/engine/scenario.hpp"
#include "rexspeed/sweep/panel_sweep.hpp"
#include "rexspeed/sweep/thread_pool.hpp"

namespace rexspeed::store {
class ResultStore;
}

namespace rexspeed::engine {

struct SweepEngineOptions {
  /// Worker threads: 0 uses hardware concurrency (the default — sweeps
  /// are parallel unless asked otherwise), 1 forces a serial engine.
  unsigned threads = 0;
  /// Persistent result cache (store::make_store); null runs uncached.
  /// run_axis plans its panel through the same plan-and-cache step as
  /// CampaignRunner (panel_job.hpp): a verified hit replaces the sweep, a
  /// recompute is stored with its measured cost — so sweeps and campaigns
  /// share entries.
  store::ResultStore* store = nullptr;
};

/// The one-scenario sweep driver: owns the thread pool, resolves scenarios
/// through the backend registry, and runs every panel through ONE generic
/// backend sweep path (sweep::PanelSweep) — no mode-specific twins.
/// `rexspeed sweep` and the single-scenario examples obtain
/// their panels here (the campaign drivers plan the same PanelJobs
/// themselves), so they inherit parallel-by-default execution with
/// results bit-identical to a serial run (each grid point writes only its
/// own slot; the per-point math is deterministic and independent of
/// scheduling).
///
/// Thread-safety: the engine itself is safe to use from one thread at a
/// time per call, and every backend it shares across its pool workers is
/// immutable after prepare() (the uniform SolverBackend contract).
class SweepEngine {
 public:
  explicit SweepEngine(SweepEngineOptions options = {});

  /// One panel of the scenario over the given axis, through the
  /// scenario's registry backend. The unified primitive behind every
  /// other panel entry point.
  [[nodiscard]] sweep::PanelSeries run_axis(
      const ScenarioSpec& spec, sweep::SweepParameter axis) const;

  /// Every panel the scenario asks for: its single axis, or — for
  /// param=all — every axis its backend advertises (six for the pair
  /// backends, ρ + segments for the interleaved one). A kSolve scenario
  /// has no panels and is rejected with std::invalid_argument (see
  /// solve_scenario / CampaignRunner for the panel-free result).
  [[nodiscard]] std::vector<sweep::PanelSeries> run_scenario(
      const ScenarioSpec& spec) const;

  [[nodiscard]] unsigned thread_count() const noexcept {
    return pool_.thread_count();
  }

  /// The engine's pool — serial engines (threads == 1) hand out null so
  /// sweep calls take the inline path.
  [[nodiscard]] sweep::ThreadPool* pool() const noexcept {
    return pool_.thread_count() > 1 ? &pool_ : nullptr;
  }

 private:
  mutable sweep::ThreadPool pool_;
  store::ResultStore* store_ = nullptr;
};

}  // namespace rexspeed::engine
