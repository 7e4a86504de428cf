#pragma once

#include <memory>
#include <string>
#include <vector>

#include "rexspeed/core/solver_backend.hpp"
#include "rexspeed/sweep/figure_sweeps.hpp"
#include "rexspeed/sweep/interleaved_sweeps.hpp"

namespace rexspeed::sweep {

/// A full backend-agnostic panel: the swept axis and one PanelPoint per
/// grid value, tagged with the backend's solution kind. This is what the
/// unified sweep/campaign paths produce for every mode; the typed
/// FigureSeries / InterleavedSeries views (to_figure_series /
/// to_interleaved_series) exist for export and analysis compatibility.
struct PanelSeries {
  SweepParameter parameter = SweepParameter::kCheckpointTime;
  std::string configuration;  ///< e.g. "Atlas/Crusoe"
  double rho = 0.0;           ///< performance bound (x value when swept)
  core::SolutionKind kind = core::SolutionKind::kPair;
  unsigned max_segments = 1;  ///< search cap (interleaved panels only)
  std::vector<core::PanelPoint> points;

  /// Largest energy_saving() over all points with both solutions feasible.
  [[nodiscard]] double max_energy_saving() const noexcept;
};

/// Typed views over a generic panel, byte-compatible with the historical
/// series types (every export stem, CSV column and gnuplot artifact is
/// unchanged). Throw std::invalid_argument on a kind mismatch.
[[nodiscard]] FigureSeries to_figure_series(const PanelSeries& panel);
[[nodiscard]] InterleavedSeries to_interleaved_series(
    const PanelSeries& panel);

/// Flattens any panel into a plain numeric Series for CSV/gnuplot export,
/// dispatching on the panel's kind (pair panels keep the figure columns,
/// interleaved panels the interleaved ones).
[[nodiscard]] Series to_series(const PanelSeries& panel);

/// Grid for any panel axis: the paper's default grid for the six figure
/// axes; the integer grid 1..max_segments for the segments axis.
[[nodiscard]] std::vector<double> panel_grid(SweepParameter parameter,
                                             std::size_t points,
                                             unsigned max_segments);

/// THE generic panel sweep: one class for every backend, replacing the
/// historical twin PanelSweep / InterleavedPanelSweep pair. The panel asks
/// the backend which axes it supports (capabilities().axes) and whether
/// one prepared instance serves the whole grid (shared_axes — ρ for every
/// backend, segments for the interleaved one); on other axes each point
/// rebinds a cheap per-point backend over apply_parameter'd params,
/// reproducing the historical per-point path of its mode bit for bit.
///
/// Construction is two-phase: the constructor validates everything (cheap,
/// throws), prepare() pays the backend's deferred cache — the dominant
/// cost of exact and interleaved ρ panels. The split lets the campaign
/// runner build many panels' caches across its pool (prepare() cannot
/// throw on a constructed plan). Both run_panel_sweep and the campaign's
/// flattened task stream drive this same setup and per-point kernel, so
/// their results are bit-identical by construction.
///
/// prepare() touches only this panel's backend and solve_point(i) writes
/// only points[i], so distinct panels prepare — and distinct indices
/// solve — concurrently without synchronization.
class PanelSweep {
 public:
  /// How the panel's points want to be scheduled: independent per-point
  /// tasks, or one whole-panel unit (batched ρ grids, where the backend
  /// takes the entire grid in one call, and warm-start chains, where each
  /// point seeds the next and order is the point).
  enum class Granularity { kPerPoint, kWholePanel };

  /// Takes ownership of the panel's backend. Throws std::invalid_argument
  /// on a null backend, an empty grid, an axis outside
  /// backend->capabilities().axes, a non-positive/non-finite bound or
  /// ρ-grid value, or a segments-grid value outside [1, max_segments] —
  /// everything a later prepare() or solve would otherwise trip over.
  PanelSweep(std::unique_ptr<core::SolverBackend> backend,
             std::string configuration, SweepParameter parameter,
             std::vector<double> grid, SweepOptions options);

  [[nodiscard]] std::size_t point_count() const noexcept {
    return grid_.size();
  }

  [[nodiscard]] Granularity granularity() const noexcept {
    return batched_ || chained_ ? Granularity::kWholePanel
                                : Granularity::kPerPoint;
  }

  /// True until prepare() has built the cache the panel needs (always
  /// false for panels that need none) — lets batched drivers skip the
  /// prepare pass for plans that would no-op.
  [[nodiscard]] bool needs_prepare() const noexcept {
    return shared_ && backend_->needs_prepare();
  }

  /// Builds the shared backend's deferred cache (idempotent; no-op for
  /// panels whose backend needs none or is rebuilt per point). Uses
  /// options.pool, when set, to parallelize independent cache entries —
  /// the cache is bit-identical either way. Must complete before the
  /// first solve_point; never throws on a constructed plan.
  void prepare();

  /// Solves grid point `i` into its series slot (prepare() first). Only
  /// valid on kPerPoint panels — whole-panel plans go through
  /// solve_all().
  void solve_point(std::size_t i);

  /// Solves the whole panel into its series slots (prepare() first):
  /// batched ρ panels hand the entire grid to the backend's
  /// solve_rho_batch (bit-identical to the per-point loop); warm-chained
  /// model-axis panels walk the grid in order, seeding each point's
  /// rebind from its neighbor's harvested optima; anything else runs the
  /// plain per-point loop serially.
  void solve_all();

  /// Relative cost of one point of this panel (the backend's
  /// capabilities().cost_weight) — the campaign scheduler's static
  /// ordering prior (see measure_cost for the measured key).
  [[nodiscard]] double cost_weight() const noexcept {
    return backend_->capabilities().cost_weight;
  }

  /// The campaign scheduler's measured ordering key: times one
  /// representative work unit (seconds) and returns the estimated cost of
  /// the REMAINING work. Per-point panels solve point 0 for real — the
  /// stream must then cover indices [first_pending(), point_count()) —
  /// while whole-panel plans time one point-equivalent probe whose result
  /// the later solve_all() recomputes identically. Call after prepare().
  [[nodiscard]] double measure_cost();

  /// First grid index the task stream still owes (1 after a per-point
  /// measure_cost(), else 0).
  [[nodiscard]] std::size_t first_pending() const noexcept {
    return first_pending_;
  }

  [[nodiscard]] const core::SolverBackend& backend() const noexcept {
    return *backend_;
  }

  /// Moves the finished panel out (call once every point is solved).
  [[nodiscard]] PanelSeries take() { return std::move(series_); }

  /// The whole panel in one call: prepare(), then solve_all() for
  /// whole-panel plans or every point across options.pool (inline without
  /// one), then take(). Batched and chained panels are one unit here as
  /// in the campaign stream, so both drivers stay bit-identical.
  [[nodiscard]] PanelSeries run();

 private:
  std::unique_ptr<core::SolverBackend> backend_;
  bool shared_ = false;
  bool batched_ = false;
  bool chained_ = false;
  std::size_t first_pending_ = 0;
  SweepOptions options_;
  std::vector<double> grid_;
  PanelSeries series_;
};

/// Runs one panel over an explicit grid off the given backend
/// (`configuration` is the label recorded in the series). Parallel when
/// options.pool is set, serial otherwise — bit-identical either way.
[[nodiscard]] PanelSeries run_panel_sweep(
    std::unique_ptr<core::SolverBackend> backend, std::string configuration,
    SweepParameter parameter, std::vector<double> grid,
    const SweepOptions& options = {});

/// One figure point (x = the bound) off any pair backend: both speed
/// policies plus their min-ρ fallbacks resolve against the backend's
/// prepared caches — the thin FigurePoint view over
/// core::SolverBackend::solve_panel_point, which is the per-grid-point
/// kernel of every sweep.
[[nodiscard]] FigurePoint solve_figure_point(
    const core::SolverBackend& backend, double rho,
    const SweepOptions& options);

}  // namespace rexspeed::sweep
