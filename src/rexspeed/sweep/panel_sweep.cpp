#include "rexspeed/sweep/panel_sweep.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
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

Series to_series(const PanelSeries& panel) {
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  if (panel.kind == core::SolutionKind::kPair) {
    Series series(to_string(panel.parameter),
                  {"sigma1", "sigma2", "Wopt2", "energy2", "sigma", "Wopt1",
                   "energy1", "saving"});
    for (const core::PanelPoint& point : panel.points) {
      const core::PairSolution& two = point.primary.pair();
      const core::PairSolution& one = point.baseline.pair();
      series.add_row(point.x, {two.feasible ? two.sigma1 : kNaN,
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
  // "best_m", not "segments": the segments-axis panel's x column already
  // carries that name, and a duplicate header breaks key-by-name
  // consumers of the CSV.
  Series series(to_string(panel.parameter),
                {"best_m", "sigma1", "sigma2", "Wopt", "energy", "time",
                 "energy1", "saving"});
  for (const core::PanelPoint& point : panel.points) {
    const core::InterleavedSolution& best = point.primary.interleaved();
    const core::InterleavedSolution& one = point.baseline.interleaved();
    series.add_row(
        point.x,
        {best.feasible ? static_cast<double>(best.segments) : kNaN,
         best.feasible ? best.sigma1 : kNaN,
         best.feasible ? best.sigma2 : kNaN,
         best.feasible ? best.w_opt : kNaN,
         best.feasible ? best.energy_overhead : kNaN,
         best.feasible ? best.time_overhead : kNaN,
         one.feasible ? one.energy_overhead : kNaN,
         // A saving only exists where both patterns do; rendering 0 at an
         // infeasible point would plot as "feasible, no gain".
         best.feasible && one.feasible ? point.energy_saving() : kNaN});
  }
  return series;
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
  chained_ = !shared_ && caps.warm_start_chain;
  series_.parameter = parameter;
  series_.configuration = std::move(configuration);
  series_.rho = options_.rho;
  series_.kind = caps.kind;
  series_.max_segments = caps.max_segments;
}

void PanelSweep::allocate() {
  std::call_once(*allocated_,
                 [this] { series_.points.resize(grid_.size()); });
}

void PanelSweep::prepare() {
  allocate();
  if (!needs_prepare()) return;
  backend_->prepare(make_parallel_build(options_.pool));
}

std::size_t PanelSweep::chunk_size(unsigned threads) const noexcept {
  // Splitting a chain would restart it cold mid-grid and move bits.
  if (chained_ || threads <= 1) return grid_.size();
  return (grid_.size() + threads - 1) / threads;
}

void PanelSweep::solve_chunk(std::size_t begin, std::size_t end) {
  allocate();
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

}  // namespace rexspeed::sweep
