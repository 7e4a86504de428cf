#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "rexspeed/core/bicrit_solver.hpp"
#include "rexspeed/core/sweep_axis.hpp"
#include "rexspeed/platform/configuration.hpp"
#include "rexspeed/sweep/series.hpp"
#include "rexspeed/sweep/thread_pool.hpp"

namespace rexspeed::sweep {

/// The sweep layer's historical name for the axis enum, now shared with
/// core so solver backends can advertise the axes they support
/// (core::BackendCapabilities::axes) without depending on this layer.
using SweepParameter = core::SweepAxis;
using core::apply_parameter;
using core::to_string;

/// Inverse of to_string: parses a sweep-parameter name ("C", "V",
/// "lambda", "rho", "Pidle", "Pio", "segments"). Returns nullopt for
/// anything else.
[[nodiscard]] std::optional<SweepParameter> parse_sweep_parameter(
    std::string_view name) noexcept;

/// One x position of a figure: the two-speed optimum next to the
/// single-speed baseline (the paper's solid vs dotted curves).
struct FigurePoint {
  double x = 0.0;
  core::PairSolution two_speed;     ///< best (σ1, σ2) solution
  core::PairSolution single_speed;  ///< best σ2 = σ1 solution
  /// True when the bound was unachievable and the min-ρ fallback policy is
  /// reported instead (the paper's figures keep plotting there; see
  /// BiCritSolver::min_rho_solution).
  bool two_speed_fallback = false;
  bool single_speed_fallback = false;

  /// Energy saved by allowing a different re-execution speed, as a
  /// fraction of the single-speed overhead (the paper's "up to 35%").
  [[nodiscard]] double energy_saving() const noexcept;
};

/// A full figure panel: the swept parameter and one point per x value.
/// This is the typed pair-backend view of the generic sweep::PanelSeries
/// (see panel_sweep.hpp), kept as the export/analysis currency.
struct FigureSeries {
  SweepParameter parameter = SweepParameter::kCheckpointTime;
  std::string configuration;  ///< e.g. "Atlas/Crusoe"
  double rho = 0.0;           ///< performance bound (x value when swept)
  std::vector<FigurePoint> points;

  /// Largest energy_saving() over all points with both solutions feasible.
  [[nodiscard]] double max_energy_saving() const noexcept;
};

/// Sweep options; defaults reproduce the paper's setup (§4.1: ρ = 3, Pio =
/// dynamic power at the lowest speed, default grids matching the figures'
/// axis ranges).
struct SweepOptions {
  double rho = 3.0;
  std::size_t points = 51;
  core::EvalMode mode = core::EvalMode::kFirstOrder;
  /// When the bound is unachievable at some x, report the minimum-ρ
  /// best-effort policy instead of an empty point (matches the paper's
  /// figures, which plot the max-speed solution beyond the feasibility
  /// horizon of the λ and ρ sweeps).
  bool min_rho_fallback = true;
  /// Chain warm starts along model-axis grids on backends that advertise
  /// warm_start_chain (each point's numeric bracketing seeded from its
  /// neighbor's optimum). Equivalent to cold starts within numeric
  /// tolerance; off reproduces the historical cold path bit for bit.
  bool warm_start_chain = true;
  /// Optional pool; null runs serially.
  ThreadPool* pool = nullptr;
};

/// Default grid for a parameter, matching the paper's axis ranges:
/// C, V, Pidle, Pio ∈ [0, 5000]; ρ ∈ [1, 3.5]; λ ∈ [1e-6, 1e-2]
/// geometrically spaced; segments = the integer grid 1..points.
[[nodiscard]] std::vector<double> default_grid(SweepParameter parameter,
                                               std::size_t points);

/// The six panel parameters of a Figure 8–14 composite, in figure order
/// (C, V, λ, ρ, Pidle, Pio). This is the panel list every pair backend
/// advertises (capabilities().axes); batched drivers can flatten it
/// themselves.
[[nodiscard]] const std::vector<SweepParameter>& all_sweep_parameters();

/// Runs one figure panel over an explicit grid, starting from an explicit
/// parameter bundle (`configuration` is the label recorded in the series).
/// A convenience wrapper over the generic backend panel (panel_sweep.hpp)
/// for the closed-form modes; scenario drivers use it so model-parameter
/// overrides reach the sweep.
[[nodiscard]] FigureSeries run_figure_sweep(
    const core::ModelParams& base, std::string configuration,
    SweepParameter parameter, const std::vector<double>& grid,
    const SweepOptions& options = {});

/// Runs one figure panel for a configuration over an explicit grid.
[[nodiscard]] FigureSeries run_figure_sweep(
    const platform::Configuration& config, SweepParameter parameter,
    const std::vector<double>& grid, const SweepOptions& options = {});

/// Same, with the default grid.
[[nodiscard]] FigureSeries run_figure_sweep(
    const platform::Configuration& config, SweepParameter parameter,
    const SweepOptions& options = {});

/// All six panels of a Figure 8–14 style composite off an explicit
/// parameter bundle.
[[nodiscard]] std::vector<FigureSeries> run_all_sweeps(
    const core::ModelParams& base, std::string configuration,
    const SweepOptions& options = {});

/// All six panels of a Figure 8–14 style composite.
[[nodiscard]] std::vector<FigureSeries> run_all_sweeps(
    const platform::Configuration& config, const SweepOptions& options = {});

/// Flattens a figure panel into a plain numeric Series (columns: sigma1,
/// sigma2, Wopt2, energy2, sigma, Wopt1, energy1, saving) for CSV/gnuplot
/// export. Infeasible points become NaN cells (rendered as gaps).
[[nodiscard]] Series to_series(const FigureSeries& figure);

}  // namespace rexspeed::sweep
