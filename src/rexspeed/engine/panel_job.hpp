#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "rexspeed/core/solver_backend.hpp"
#include "rexspeed/engine/scenario.hpp"
#include "rexspeed/store/result_store.hpp"
#include "rexspeed/sweep/panel_sweep.hpp"
#include "rexspeed/sweep/thread_pool.hpp"

// The one plan-and-cache path of every engine driver. CampaignRunner, the
// shard coordinator and its workers, and SweepEngine all validate, resolve
// and key each panel or solve (plan_*), fetch and shape-check it
// (fetch_jobs) and store it through the jobs below, so a result is the
// same bits whichever driver produced it — by construction, not by
// mirroring. Drivers differ only in how they execute a missed job (the
// campaign's flattened stream, a worker's serial run, the sweep engine's
// pool) and in how a failed put surfaces: the one-job drivers (the sweep
// engine, a worker) throw it, the campaign and the coordinator report it
// (store_results).

namespace rexspeed::engine {

/// One panel of a scenario, planned against an optional result store.
/// Once fetch_jobs has run, exactly one of `hit` and `sweep` is set: a
/// verified store hit of the right shape fills `hit` and builds no
/// PanelSweep (nor, decisively, its prepare); anything else — uncached,
/// miss, corruption, wrong payload, wrong shape — leaves a validated
/// `sweep` to compute.
struct PanelJob {
  sweep::SweepParameter axis = sweep::SweepParameter::kCheckpointTime;
  std::size_t points = 0;  ///< grid size: the shape any result must have
  std::optional<sweep::PanelSeries> hit;
  std::optional<sweep::PanelSweep> sweep;

  /// What `sweep` is built from, held from plan_panel until fetch_jobs
  /// either builds it or, on a hit, drops it.
  std::unique_ptr<core::SolverBackend> backend;
  std::string configuration;
  std::vector<double> grid;
  sweep::SweepOptions options;

  /// Null when uncached (no store wired, or the spec opted out).
  store::ResultStore* cache = nullptr;
  std::string key;       ///< content address (store::panel_key)
  std::string cost_key;  ///< measured-cost table key (store::cost_key)
  store::EntryInfo info;  ///< provenance stored with the result

  /// Decodes `blob` — a store entry check_envelope has passed, or a shard
  /// worker's reply inside a checksummed frame — when it is a panel of
  /// this job's axis and point count; nullopt otherwise, and the caller
  /// recomputes.
  [[nodiscard]] std::optional<sweep::PanelSeries> accept(
      std::string_view blob) const;

  /// The per-point cost an earlier run recorded for this backend + axis
  /// (nullopt when uncached or unrecorded).
  [[nodiscard]] std::optional<double> persisted_cost() const;

  /// The put_many entry storing `series` (which must outlive the call)
  /// with its canonical size and measured per-point cost, fed to the cost
  /// table too. Cached jobs only.
  [[nodiscard]] store::PutEntry entry(const sweep::PanelSeries& series,
                                      double seconds_per_point) const;

  /// Computes the planned sweep in one call (across the pool it was
  /// planned with, serially without one) and returns it without storing
  /// it. `seconds_per_point`, when non-null, receives its measured
  /// wall-clock cost per point.
  [[nodiscard]] sweep::PanelSeries compute(
      double* seconds_per_point = nullptr);

  /// compute(), then puts the result with its measured cost when cached.
  /// A failed put throws StoreError.
  [[nodiscard]] sweep::PanelSeries run(double* seconds_per_point = nullptr);
};

/// A kSolve scenario's bound solve, planned like a PanelJob: after
/// fetch_jobs, `hit` on a verified store hit (no backend kept), else an
/// unprepared `backend`, built and validated at plan time.
struct SolveJob {
  std::optional<core::Solution> hit;
  std::unique_ptr<core::SolverBackend> backend;
  double rho = 0.0;
  core::SpeedPolicy policy = core::SpeedPolicy::kTwoSpeed;
  bool min_rho_fallback = false;

  store::ResultStore* cache = nullptr;
  std::string key;  ///< content address (store::solve_key)
  store::EntryInfo info;

  /// Decodes `blob` (as PanelJob::accept) when it is a solution entry;
  /// nullopt otherwise.
  [[nodiscard]] std::optional<core::Solution> accept(
      std::string_view blob) const;

  /// The solve off the already-prepared backend (cannot throw: the bound
  /// was validated at plan time).
  [[nodiscard]] core::Solution solve() const;

  /// The put_many entry storing `solution` (which must outlive the
  /// call). Cached jobs only.
  [[nodiscard]] store::PutEntry entry(const core::Solution& solution) const;

  /// Prepares the backend and solves, without storing the result.
  [[nodiscard]] core::Solution compute();

  /// compute(), then puts (when cached; as PanelJob::run) and returns the
  /// solution.
  [[nodiscard]] core::Solution run();
};

/// Every job of one scenario: one PanelJob per scenario_panel_axes entry
/// for the sweep kinds, or the SolveJob of a kSolve.
struct ScenarioJob {
  std::vector<PanelJob> panels;
  std::optional<SolveJob> solve;
};

/// Validates a scenario the way every driver must before planning:
/// ScenarioSpec::validate plus a positive, finite bound (solve tasks call
/// the backend directly, and pool tasks must not throw). Returns its
/// resolved model parameters.
[[nodiscard]] core::ModelParams resolve_scenario(const ScenarioSpec& spec);

/// Plans one panel of `spec` over already-resolved `params`: builds the
/// backend and grid and, when `cache` is non-null and the spec opts in,
/// the panel's keys and provenance. It neither fetches nor builds the
/// PanelSweep; fetch_jobs does both. `pool` is only the pool the sweep
/// will run on; it never reaches the key.
[[nodiscard]] PanelJob plan_panel(const ScenarioSpec& spec,
                                  core::ModelParams params,
                                  sweep::SweepParameter axis,
                                  store::ResultStore* cache,
                                  sweep::ThreadPool* pool = nullptr);

/// Plans a kSolve scenario's solve over already-resolved `params`.
[[nodiscard]] SolveJob plan_solve(const ScenarioSpec& spec,
                                  core::ModelParams params,
                                  store::ResultStore* cache);

/// resolve_scenario, then every panel (planned pool-free) or the solve.
[[nodiscard]] ScenarioJob plan_scenario(const ScenarioSpec& spec,
                                        store::ResultStore* cache);

/// The store step of the drivers that report instead of failing (the
/// campaign and the shard coordinator): puts every entry in one put_many
/// across `parallel`, then flushes the counters. A write that fails costs
/// cache warmth, never a result, so nothing is thrown: what could not be
/// done comes back as incident lines, one per kind of failure (entries
/// not stored, costs not recorded, counters not saved).
[[nodiscard]] std::vector<std::string> store_results(
    store::ResultStore& cache, const std::vector<store::PutEntry>& entries,
    const store::ParallelFor& parallel = {});

/// The fetch-and-accept step every driver runs on what it planned, before
/// it computes anything. Every cached job is looked up with ONE
/// ResultStore::fetch_many call on the store the jobs were planned
/// against (they must share one), and `parallel` runs the per-entry work:
/// read, verify, and decode through the job's accept, each blob freed as
/// soon as it is decoded. Then, on the calling thread, every panel left
/// without a usable hit gets its PanelSweep, whose constructor rejects
/// every input a later prepare or solve would trip over (so this may
/// throw), and hits drop the backends they no longer need. Store methods
/// are called from the calling thread only; the decodes are pure, so pool
/// tasks cannot throw. Empty `parallel` runs everything serially.
void fetch_jobs(std::span<ScenarioJob> jobs,
                const store::ParallelFor& parallel = {});

}  // namespace rexspeed::engine
