#include "rexspeed/sweep/figure_sweeps.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <utility>

#include "rexspeed/sweep/grid.hpp"
#include "rexspeed/sweep/panel_sweep.hpp"

namespace rexspeed::sweep {

std::optional<SweepParameter> parse_sweep_parameter(
    std::string_view name) noexcept {
  return core::parse_sweep_axis(name);
}

double FigurePoint::energy_saving() const noexcept {
  if (!two_speed.feasible || !single_speed.feasible ||
      !(single_speed.energy_overhead > 0.0)) {
    return 0.0;
  }
  return 1.0 - two_speed.energy_overhead / single_speed.energy_overhead;
}

double FigureSeries::max_energy_saving() const noexcept {
  double best = 0.0;
  for (const auto& point : points) {
    best = std::max(best, point.energy_saving());
  }
  return best;
}

std::vector<double> default_grid(SweepParameter parameter,
                                 std::size_t points) {
  switch (parameter) {
    case SweepParameter::kCheckpointTime:
    case SweepParameter::kVerificationTime:
    case SweepParameter::kIdlePower:
    case SweepParameter::kIoPower:
      return linspace(0.0, 5000.0, points);
    case SweepParameter::kPerformanceBound:
      return linspace(1.0, 3.5, points);
    case SweepParameter::kErrorRate:
      return logspace(1e-6, 1e-2, points);
    case SweepParameter::kSegments: {
      // Integer segment counts 1..points (interleaved panels pass their
      // max_segments as the point count).
      std::vector<double> grid;
      grid.reserve(points);
      for (std::size_t m = 1; m <= points; ++m) {
        grid.push_back(static_cast<double>(m));
      }
      return grid;
    }
  }
  throw std::invalid_argument("default_grid: unknown parameter");
}

const std::vector<SweepParameter>& all_sweep_parameters() {
  static const std::vector<SweepParameter> kParameters = {
      SweepParameter::kCheckpointTime, SweepParameter::kVerificationTime,
      SweepParameter::kErrorRate,      SweepParameter::kPerformanceBound,
      SweepParameter::kIdlePower,      SweepParameter::kIoPower};
  return kParameters;
}

FigureSeries run_figure_sweep(const core::ModelParams& base,
                              std::string configuration,
                              SweepParameter parameter,
                              const std::vector<double>& grid,
                              const SweepOptions& options) {
  return to_figure_series(
      run_panel_sweep(core::make_mode_backend(base, options.mode),
                      std::move(configuration), parameter, grid, options));
}

FigureSeries run_figure_sweep(const platform::Configuration& config,
                              SweepParameter parameter,
                              const std::vector<double>& grid,
                              const SweepOptions& options) {
  return run_figure_sweep(core::ModelParams::from_configuration(config),
                          config.name(), parameter, grid, options);
}

FigureSeries run_figure_sweep(const platform::Configuration& config,
                              SweepParameter parameter,
                              const SweepOptions& options) {
  return run_figure_sweep(config, parameter,
                          default_grid(parameter, options.points), options);
}

Series to_series(const FigureSeries& figure) {
  Series series(to_string(figure.parameter),
                {"sigma1", "sigma2", "Wopt2", "energy2", "sigma", "Wopt1",
                 "energy1", "saving"});
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  for (const auto& point : figure.points) {
    const auto& two = point.two_speed;
    const auto& one = point.single_speed;
    series.add_row(
        point.x,
        {two.feasible ? two.sigma1 : kNaN,
         two.feasible ? two.sigma2 : kNaN,
         two.feasible ? two.w_opt : kNaN,
         two.feasible ? two.energy_overhead : kNaN,
         one.feasible ? one.sigma1 : kNaN,
         one.feasible ? one.w_opt : kNaN,
         one.feasible ? one.energy_overhead : kNaN,
         point.energy_saving()});
  }
  return series;
}

std::vector<FigureSeries> run_all_sweeps(const core::ModelParams& base,
                                         std::string configuration,
                                         const SweepOptions& options) {
  std::vector<FigureSeries> all;
  all.reserve(all_sweep_parameters().size());
  for (const SweepParameter parameter : all_sweep_parameters()) {
    all.push_back(run_figure_sweep(base, configuration, parameter,
                                   default_grid(parameter, options.points),
                                   options));
  }
  return all;
}

std::vector<FigureSeries> run_all_sweeps(const platform::Configuration& config,
                                         const SweepOptions& options) {
  return run_all_sweeps(core::ModelParams::from_configuration(config),
                        config.name(), options);
}

}  // namespace rexspeed::sweep
