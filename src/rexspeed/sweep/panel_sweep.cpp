#include "rexspeed/sweep/panel_sweep.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "rexspeed/sweep/thread_pool.hpp"

namespace rexspeed::sweep {

double PanelSeries::max_energy_saving() const noexcept {
  double best = 0.0;
  for (const auto& point : points) {
    best = std::max(best, point.energy_saving());
  }
  return best;
}

FigureSeries to_figure_series(const PanelSeries& panel) {
  if (panel.kind != core::SolutionKind::kPair) {
    throw std::invalid_argument(
        "to_figure_series: panel carries interleaved solutions (use "
        "to_interleaved_series)");
  }
  FigureSeries out;
  out.parameter = panel.parameter;
  out.configuration = panel.configuration;
  out.rho = panel.rho;
  out.points.reserve(panel.points.size());
  for (const auto& point : panel.points) {
    FigurePoint typed;
    typed.x = point.x;
    typed.two_speed = point.primary.pair;
    typed.single_speed = point.baseline.pair;
    typed.two_speed_fallback = point.primary.used_fallback;
    typed.single_speed_fallback = point.baseline.used_fallback;
    out.points.push_back(std::move(typed));
  }
  return out;
}

InterleavedSeries to_interleaved_series(const PanelSeries& panel) {
  if (panel.kind != core::SolutionKind::kInterleaved) {
    throw std::invalid_argument(
        "to_interleaved_series: panel carries pair solutions (use "
        "to_figure_series)");
  }
  InterleavedSeries out;
  out.parameter = panel.parameter;
  out.configuration = panel.configuration;
  out.rho = panel.rho;
  out.max_segments = panel.max_segments;
  out.points.reserve(panel.points.size());
  for (const auto& point : panel.points) {
    InterleavedPoint typed;
    typed.x = point.x;
    typed.best = point.primary.interleaved;
    typed.single = point.baseline.interleaved;
    out.points.push_back(typed);
  }
  return out;
}

Series to_series(const PanelSeries& panel) {
  return panel.kind == core::SolutionKind::kPair
             ? to_series(to_figure_series(panel))
             : to_series(to_interleaved_series(panel));
}

std::vector<double> panel_grid(SweepParameter parameter, std::size_t points,
                               unsigned max_segments) {
  if (parameter == SweepParameter::kSegments) {
    return default_grid(parameter, max_segments);
  }
  return default_grid(parameter, points);
}

PanelSweep::PanelSweep(std::unique_ptr<core::SolverBackend> backend,
                       std::string configuration, SweepParameter parameter,
                       std::vector<double> grid, SweepOptions options)
    : backend_(std::move(backend)),
      options_(options),
      grid_(std::move(grid)) {
  if (!backend_) {
    throw std::invalid_argument("PanelSweep: null backend");
  }
  const core::BackendCapabilities& caps = backend_->capabilities();
  if (!caps.supports(parameter)) {
    throw std::invalid_argument(
        std::string("PanelSweep: backend '") + backend_->name() +
        "' does not sweep '" + to_string(parameter) +
        (parameter == SweepParameter::kSegments
             ? "' (the segments axis needs the interleaved solver mode — "
               "set segments= or max_segments= on the scenario)"
             : "' (see capabilities().axes)"));
  }
  if (grid_.empty()) {
    throw std::invalid_argument("PanelSweep: empty grid");
  }
  // The pool's workers have no exception barrier (tasks must not throw),
  // so the bounds the backend would reject are rejected here instead: the
  // panel's ρ, and — for ρ panels, where each x IS the bound — the grid.
  if (!(options_.rho > 0.0) || !std::isfinite(options_.rho)) {
    throw std::invalid_argument(
        "PanelSweep: rho must be positive and finite");
  }
  for (const double x : grid_) {
    if (parameter == SweepParameter::kPerformanceBound &&
        (!(x > 0.0) || !std::isfinite(x))) {
      throw std::invalid_argument(
          "PanelSweep: rho-sweep grid values must be positive and finite");
    }
    if (parameter == SweepParameter::kSegments) {
      const double rounded = std::floor(x + 0.5);
      if (!(rounded >= 1.0) ||
          rounded > static_cast<double>(caps.max_segments) ||
          std::abs(x - rounded) > 1e-9) {
        throw std::invalid_argument(
            "PanelSweep: segments-sweep grid values must be integers in "
            "[1, max_segments]");
      }
    }
  }
  shared_ = caps.shares_panel_solver(parameter);
  // Chained: a model axis whose per-point rebinds are warm-started from
  // the neighboring point (order IS the point, so the panel is one
  // chunk). A property of THIS panel's axis × backend, frozen here.
  chained_ = !shared_ && caps.warm_start_chain && options_.warm_start_chain;
  series_.parameter = parameter;
  series_.configuration = std::move(configuration);
  series_.rho = options_.rho;
  series_.kind = caps.kind;
  series_.max_segments = caps.max_segments;
  series_.points.resize(grid_.size());
}

void PanelSweep::prepare() {
  if (!needs_prepare()) return;
  backend_->prepare(make_parallel_build(options_.pool));
}

std::size_t PanelSweep::chunk_size(unsigned threads) const noexcept {
  // Splitting a chain would restart it cold mid-grid and move bits.
  if (chained_ || threads <= 1) return grid_.size();
  return (grid_.size() + threads - 1) / threads;
}

void PanelSweep::solve_chunk(std::size_t begin, std::size_t end) {
  if (!chained_) {
    backend_->solve_batch(series_.parameter, grid_.data() + begin,
                          end - begin, options_.rho,
                          options_.min_rho_fallback,
                          series_.points.data() + begin);
    return;
  }
  // Walk the range in order, seeding each point's per-pair bracketing
  // from the optima harvested at its neighbor. The first point has no
  // seeds and runs the cold path bit for bit; later points converge to
  // the same optima within numeric tolerance, only faster.
  core::PairSeedTable seeds;
  core::PairSeedTable harvest;
  for (std::size_t i = begin; i < end; ++i) {
    const double x = grid_[i];
    const std::unique_ptr<core::SolverBackend> point_backend =
        backend_->rebind(
            apply_parameter(backend_->params(), series_.parameter, x),
            seeds.empty() ? nullptr : &seeds);
    point_backend->prepare();
    series_.points[i] = point_backend->solve_panel_point_seeded(
        series_.parameter, x, options_.rho, options_.min_rho_fallback,
        &harvest);
    std::swap(seeds, harvest);
  }
}

double PanelSweep::measure_cost() {
  using clock = std::chrono::steady_clock;
  // A chain's first link is a cold rebind — exactly what the one-point
  // batch runs — so the probe is the panel's own unit of work throughout.
  core::PanelPoint probe;
  const auto start = clock::now();
  backend_->solve_batch(series_.parameter, grid_.data(), 1, options_.rho,
                        options_.min_rho_fallback, &probe);
  const double seconds =
      std::chrono::duration<double>(clock::now() - start).count();
  return seconds * static_cast<double>(point_count());
}

PanelSeries PanelSweep::run() {
  prepare();
  const std::size_t size =
      chunk_size(options_.pool != nullptr ? options_.pool->thread_count() : 1);
  const std::size_t chunks = (point_count() + size - 1) / size;
  parallel_for(options_.pool, chunks, [this, size](std::size_t c) {
    const std::size_t begin = c * size;
    solve_chunk(begin, std::min(point_count(), begin + size));
  });
  return take();
}

PanelSeries run_panel_sweep(std::unique_ptr<core::SolverBackend> backend,
                            std::string configuration,
                            SweepParameter parameter,
                            std::vector<double> grid,
                            const SweepOptions& options) {
  return PanelSweep(std::move(backend), std::move(configuration), parameter,
                    std::move(grid), options)
      .run();
}

FigurePoint solve_figure_point(const core::SolverBackend& backend,
                               double rho, const SweepOptions& options) {
  const core::PanelPoint point = backend.solve_panel_point(
      SweepParameter::kPerformanceBound, rho, rho, options.min_rho_fallback);
  FigurePoint typed;
  typed.x = rho;
  typed.two_speed = point.primary.pair;
  typed.single_speed = point.baseline.pair;
  typed.two_speed_fallback = point.primary.used_fallback;
  typed.single_speed_fallback = point.baseline.used_fallback;
  return typed;
}

}  // namespace rexspeed::sweep
