#pragma once

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "rexspeed/core/solver_backend.hpp"
#include "rexspeed/sweep/figure_sweeps.hpp"
#include "rexspeed/sweep/series.hpp"

namespace rexspeed::sweep {

/// A full backend-agnostic panel: the swept axis and one PanelPoint per
/// grid value, tagged with the backend's solution kind. This is the one
/// panel type: every sweep, campaign, cache entry and export carries it,
/// whatever the mode (pair panels hold the two-speed optimum as
/// `primary.pair()` and the single-speed baseline as `baseline.pair()`;
/// interleaved panels the best segmented pattern and its m = 1 baseline).
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

/// Flattens any panel into a plain numeric Series for CSV/gnuplot export,
/// dispatching on the panel's kind. Pair panels: sigma1, sigma2, Wopt2,
/// energy2 (two-speed), sigma, Wopt1, energy1 (single-speed), saving.
/// Interleaved panels: best_m, sigma1, sigma2, Wopt, energy, time,
/// energy1 (the m = 1 baseline), saving. Infeasible solutions become NaN
/// cells (rendered as gaps); an interleaved saving is NaN unless both
/// patterns are feasible.
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
/// backend, segments for the interleaved one); on other axes every point
/// has its own apply_parameter'd params, which the backend's solve_batch
/// handles (a per-point rebind by default, one rewritten scratch table on
/// the first-order closed forms), reproducing the historical per-point
/// path of its mode bit for bit.
///
/// Construction is two-phase: the constructor validates everything (cheap,
/// throws, allocates no points), prepare() sizes the series and pays the
/// backend's deferred cache — the dominant cost of exact and interleaved ρ
/// panels. The split lets the campaign runner fault in every panel's
/// series and build every cache across its pool (prepare() cannot throw on
/// a constructed plan).
///
/// The one unit of work is a contiguous chunk of the grid
/// (solve_chunk): one backend solve_batch call. Both run_panel_sweep and
/// the campaign's flattened task stream split a panel into chunks of
/// chunk_size(threads) points, so their results are bit-identical by
/// construction — and, since every point is independent, identical
/// whatever the chunking. A warm-start-chained panel is the exception:
/// each point seeds the next, so it is always one chunk. prepare()
/// touches only this panel's backend and solve_chunk(begin, end) writes
/// only points [begin, end), so distinct panels prepare — and disjoint
/// chunks solve — concurrently without synchronization.
class PanelSweep {
 public:
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

  /// True until prepare() has built the backend cache the panel needs
  /// (always false for panels that need none).
  [[nodiscard]] bool needs_prepare() const noexcept {
    return shared_ && backend_->needs_prepare();
  }

  /// Sizes the series to the grid, then builds the shared backend's
  /// deferred cache (idempotent; the cache step is a no-op for panels
  /// whose backend needs none or whose points each have their own params).
  /// Uses options.pool, when set, to parallelize independent cache
  /// entries — the cache is bit-identical either way. Must complete before
  /// the first solve_chunk on a panel that needs_prepare(); never throws
  /// on a constructed plan.
  void prepare();

  /// Points per chunk when `threads` workers share the panel:
  /// ⌈points / threads⌉, or the whole grid for a warm-start chain (and
  /// for one thread). A model-axis panel on a backend advertising
  /// warm_start_chain always chains.
  [[nodiscard]] std::size_t chunk_size(unsigned threads) const noexcept;

  /// Solves grid points [begin, end) into their series slots (prepare()
  /// first; a panel that needs no cache sizes its series here when
  /// nothing prepared it) in one backend solve_batch call. A warm-start
  /// chain walks the range in order, seeding each point's rebind from its
  /// neighbor's harvested optima, starting cold at `begin` — which is why
  /// chunk_size never splits one.
  void solve_chunk(std::size_t begin, std::size_t end);

  /// Relative cost of one point of this panel (the backend's
  /// capabilities().cost_weight) — the campaign scheduler's static
  /// ordering prior (see measure_cost for the measured key).
  [[nodiscard]] double cost_weight() const noexcept {
    return backend_->capabilities().cost_weight;
  }

  /// The campaign scheduler's measured ordering key: times a one-point
  /// solve_batch of grid point 0 (result discarded; the chunk that owns
  /// the point recomputes it identically) and returns the estimated cost
  /// of the whole panel in seconds. Call after prepare().
  [[nodiscard]] double measure_cost();

  /// Moves the finished panel out (call once every point is solved).
  [[nodiscard]] PanelSeries take() { return std::move(series_); }

  /// The whole panel in one call: prepare(), then every chunk of
  /// chunk_size(threads of options.pool) across the pool (inline without
  /// one), then take() — the same chunks the campaign stream schedules.
  [[nodiscard]] PanelSeries run();

 private:
  /// Sizes series_.points to the grid, exactly once, on whichever thread
  /// gets here first: the value-initialization faults the whole panel in.
  void allocate();

  std::unique_ptr<core::SolverBackend> backend_;
  bool shared_ = false;
  bool chained_ = false;
  SweepOptions options_;
  std::vector<double> grid_;
  PanelSeries series_;
  /// allocate()'s guard, by pointer so a PanelSweep stays movable.
  std::unique_ptr<std::once_flag> allocated_ =
      std::make_unique<std::once_flag>();
};

/// Runs one panel over an explicit grid off the given backend
/// (`configuration` is the label recorded in the series). Parallel when
/// options.pool is set, serial otherwise — bit-identical either way.
[[nodiscard]] PanelSeries run_panel_sweep(
    std::unique_ptr<core::SolverBackend> backend, std::string configuration,
    SweepParameter parameter, std::vector<double> grid,
    const SweepOptions& options = {});

}  // namespace rexspeed::sweep
