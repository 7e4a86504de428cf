#pragma once

#include <string>
#include <vector>

#include "rexspeed/engine/scenario.hpp"
#include "rexspeed/sweep/panel_sweep.hpp"
#include "rexspeed/sweep/thread_pool.hpp"

namespace rexspeed::store {
class ResultStore;
}

namespace rexspeed::engine {

/// Everything one scenario of a campaign produced, dispatched on its kind:
/// a kSweep scenario fills one panel, a param=all composite every axis its
/// backend advertises, and a kSolve scenario leaves `panels` empty and
/// reports its bound solve in `solution` instead. Panels and solutions
/// are backend-agnostic (sweep::PanelSeries / core::Solution) — consumers
/// dispatch on their `kind` tags, not on scenario modes.
struct ScenarioResult {
  ScenarioSpec spec;
  std::vector<sweep::PanelSeries> panels;
  /// kSolve only: the unified solve outcome (Solution::used_fallback
  /// reports a min-ρ fallback take on pair backends).
  core::Solution solution;
};

struct CampaignRunnerOptions {
  /// Worker threads: 0 uses hardware concurrency, 1 forces a serial run.
  unsigned threads = 0;
  /// Persistent result cache (store::make_store); null runs uncached.
  /// Once every panel and solve is planned, their content addresses are
  /// looked up in one batch whose reads, verifies and decodes run on the
  /// pool (engine/panel_job.hpp, shared by every driver): a verified hit
  /// fills the result slot outright — skipping the sweep, prepare and
  /// every chunk task — and a corrupt or missing entry falls through to a
  /// normal recompute whose result is stored (and heals the entry) once
  /// the stream drains, in one put_many that encodes and writes across
  /// the pool; an entry that cannot be written is an incident (see
  /// CampaignRunner::incidents), not an error. The store's methods are
  /// called from the thread that calls run() only. Persisted per-point
  /// costs also seed the longest-first ordering, replacing that panel's
  /// timed probe. Cached results are bit-identical to recomputed ones by
  /// tested contract, so a warm campaign equals a cold one byte for byte.
  store::ResultStore* store = nullptr;
};

/// Batched multi-scenario driver: flattens every (scenario × panel ×
/// chunk) of a campaign into ONE task stream over a shared ThreadPool,
/// with no per-panel or per-scenario barriers — the tail of one panel no
/// longer idles workers while the next panel waits to start, which is
/// where sequential panels lose throughput on small grids.
///
/// The stream has three phases: plan (resolves every scenario's backend
/// through engine::backend_registry and validates everything — tasks
/// cannot throw — and fetches store hits across the pool), prepare (one
/// pooled barrier building the heavyweight deferred caches of every panel
/// and solve whose backend needs one; skipped when none does), and the
/// flattened chunk stream itself. Each panel is split into contiguous
/// chunks of ⌈points / threads⌉ grid points
/// (sweep::PanelSweep::chunk_size; a warm-start chain stays one chunk),
/// each solved by one backend solve_batch call. Whole panels are ordered
/// longest-first by MEASURED cost: each panel times a one-point
/// solve_batch whose result it discards (sweep::PanelSweep::measure_cost)
/// and the products probe × points rank the panels, so the heaviest
/// panels start earliest and the stream's tail stays short whatever the
/// grid, kernel tier or machine. Ordering and chunking cannot change
/// results (every task writes only its own slots). See
/// docs/ARCHITECTURE.md for the full model.
///
/// Determinism: every chunk runs the same batched kernel
/// (core::SolverBackend::solve_batch, bit-identical to the per-point
/// reference) against the same per-panel inputs as a per-scenario
/// SweepEngine run, so campaign results are bit-identical to running
/// each scenario alone — serial or parallel, any thread count, any
/// scheduling. Backends shared across workers are immutable after their
/// prepare step (the uniform SolverBackend contract).
class CampaignRunner {
 public:
  explicit CampaignRunner(CampaignRunnerOptions options = {});

  /// Runs a whole campaign through one flattened task stream. Scenario
  /// resolution errors (unknown configuration, invalid overrides,
  /// simulate-only dimensions) throw before any task runs.
  [[nodiscard]] std::vector<ScenarioResult> run(
      const std::vector<ScenarioSpec>& specs) const;

  /// One-scenario campaign (handles all three kinds, including the
  /// panel-free kSolve that SweepEngine::run_scenario rejects).
  [[nodiscard]] ScenarioResult run_one(const ScenarioSpec& spec) const;

  [[nodiscard]] unsigned thread_count() const noexcept {
    return pool_.thread_count();
  }

  /// What the most recent run() could not do without costing a result:
  /// one line per kind of failed cache write (entries not stored, costs
  /// not recorded, counters not saved). Its results are complete and exact either way.
  [[nodiscard]] const std::vector<std::string>& incidents() const noexcept {
    return incidents_;
  }

  /// The runner's pool — serial runners (threads == 1) hand out null so
  /// the flattened stream runs inline.
  [[nodiscard]] sweep::ThreadPool* pool() const noexcept {
    return pool_.thread_count() > 1 ? &pool_ : nullptr;
  }

 private:
  mutable sweep::ThreadPool pool_;
  store::ResultStore* store_ = nullptr;
  mutable std::vector<std::string> incidents_;
};

}  // namespace rexspeed::engine
