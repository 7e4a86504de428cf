// Cached-backend gain of the exact-optimization mode: an exact-mode ρ
// sweep (both speed policies at every bound, the figure-point kernel),
// run three ways with identical results:
//
//   per-point rebuild — the pre-cache path: every grid point re-runs
//     optimize_exact_pair for all K² pairs from scratch
//     (solve_panel_point off a ClosedFormBackend in kExactOptimize);
//   cached serial     — ONE core::ExactOptBackend pays the per-(σ1,σ2)
//     exact curve optimization once (its prepare() included in the
//     timing);
//     every point is then feasibility math + at most one bisection;
//   cached parallel   — the same backend behind SweepEngine's exact ρ
//     panel, grid points across the pool.
//
// Emits BENCH_exact.json next to the textual report so the perf
// trajectory of the exact path is machine-readable. The acceptance
// target for the cached backend is a ≥5× per-point speedup.
//
// Usage: bench_exact [--points=21] [--threads=0] [--json=BENCH_exact.json]

#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>
#include <fstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "rexspeed/core/solver_backend.hpp"
#include "rexspeed/engine/scenario.hpp"
#include "rexspeed/engine/sweep_engine.hpp"
#include "rexspeed/io/cli.hpp"
#include "rexspeed/platform/configuration.hpp"

using namespace rexspeed;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Compares the two-speed curves of two runs of the sweep. Points where
/// either run degraded to its min-ρ fallback are checked for flag
/// agreement only: the rebuild path falls back to the first-order
/// tangency policy while the cached backend uses the exact-model one —
/// different by design, both feasible best-effort answers.
bool series_agree(const std::vector<core::PanelPoint>& a,
                  const std::vector<core::PanelPoint>& b,
                  double* max_rel_err) {
  *max_rel_err = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const core::Solution& left = a[i].primary;
    const core::Solution& right = b[i].primary;
    if (left.used_fallback != right.used_fallback ||
        left.pair.feasible != right.pair.feasible) {
      std::fprintf(stderr, "MISMATCH at x=%g: feasibility/fallback differs\n",
                   a[i].x);
      return false;
    }
    if (left.used_fallback || !left.pair.feasible) continue;
    const double rel = std::abs(left.pair.energy_overhead -
                                right.pair.energy_overhead) /
                       right.pair.energy_overhead;
    *max_rel_err = std::max(*max_rel_err, rel);
  }
  if (*max_rel_err > 1e-6) {
    std::fprintf(stderr, "MISMATCH: cached vs rebuild energy differs by "
                 "%.3g\n", *max_rel_err);
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) try {
  const io::ArgParser args(argc, argv);
  const auto points =
      static_cast<std::size_t>(args.get_long_or("points", 21));
  const auto threads = static_cast<unsigned>(args.get_long_or("threads", 0));
  const std::string json_path = args.get_or("json", "BENCH_exact.json");

  const auto params = core::ModelParams::from_configuration(
      platform::configuration_by_name("Hera/XScale"));
  const std::vector<double> grid =
      sweep::default_grid(sweep::SweepParameter::kPerformanceBound, points);
  // One figure point: both speed policies (and their min-ρ fallbacks) at
  // bound x.
  const auto figure_point = [](const core::SolverBackend& backend,
                               double rho) {
    return backend.solve_panel_point(sweep::SweepParameter::kPerformanceBound,
                                     rho, rho, /*min_rho_fallback=*/true);
  };

  std::printf("exact-opt rho sweep: %zu points, %zu speeds -> %zu pairs\n\n",
              grid.size(), params.speeds.size(),
              params.speeds.size() * params.speeds.size());

  // Per-point rebuild (the pre-cache path): the closed-form backend's
  // first-order expansions don't help kExactOptimize — every point pays
  // the full per-pair numeric optimization.
  auto start = Clock::now();
  const core::ClosedFormBackend rebuild_backend(
      params, core::EvalMode::kExactOptimize);
  std::vector<core::PanelPoint> rebuilt;
  rebuilt.reserve(grid.size());
  for (const double rho : grid) {
    rebuilt.push_back(figure_point(rebuild_backend, rho));
  }
  const double naive_s = seconds_since(start);

  // Cached serial, prepare (the per-pair curve optimization) included.
  start = Clock::now();
  core::ExactOptBackend exact_backend(params);
  exact_backend.prepare();
  std::vector<core::PanelPoint> cached;
  cached.reserve(grid.size());
  for (const double rho : grid) {
    cached.push_back(figure_point(exact_backend, rho));
  }
  const double cached_s = seconds_since(start);

  // Cached parallel through the engine's exact ρ panel.
  engine::ScenarioSpec spec;
  spec.name = "bench";
  spec.configuration = "Hera/XScale";
  spec.mode = core::EvalMode::kExactOptimize;
  spec.points = points;
  spec.sweep_parameter = sweep::SweepParameter::kPerformanceBound;
  const engine::SweepEngine engine({.threads = threads});
  start = Clock::now();
  const sweep::PanelSeries panel =
      engine.run_axis(spec, *spec.sweep_parameter);
  const double parallel_s = seconds_since(start);

  double max_rel_err = 0.0;
  if (!series_agree(cached, rebuilt, &max_rel_err)) return 1;
  double parallel_rel_err = 0.0;
  if (!series_agree(panel.points, rebuilt, &parallel_rel_err)) return 1;

  std::printf("per-point rebuild: %8.3f s  (%7.1f points/s)\n", naive_s,
              grid.size() / naive_s);
  std::printf("cached serial:     %8.3f s  (%7.1f points/s)  %.2fx\n",
              cached_s, grid.size() / cached_s, naive_s / cached_s);
  std::printf("cached parallel:   %8.3f s  (%7.1f points/s)  %.2fx  "
              "(%u threads)\n",
              parallel_s, grid.size() / parallel_s, naive_s / parallel_s,
              engine.thread_count());
  std::printf("max energy rel. difference cached vs rebuild: %.2e\n",
              max_rel_err);

  bench::BenchReport report("bench_exact", "Hera/XScale");
  report.metric("points", grid.size())
      .metric("speed_pairs", params.speeds.size() * params.speeds.size())
      .metric("per_point_rebuild_s", naive_s)
      .metric("cached_serial_s", cached_s)
      .metric("cached_parallel_s", parallel_s)
      .metric("threads", engine.thread_count())
      .metric("cached_speedup", naive_s / cached_s)
      .metric("parallel_speedup", naive_s / parallel_s)
      .metric("speedup_target", 5.0)
      .metric("max_energy_rel_err", max_rel_err);
  if (!report.write(json_path)) return 1;
  if (naive_s / cached_s < 5.0) {
    std::fprintf(stderr,
                 "WARNING: cached speedup %.2fx below the 5x target\n",
                 naive_s / cached_s);
  }
  return 0;
} catch (const std::exception& error) {
  std::fprintf(stderr, "error: %s\n", error.what());
  return 1;
}
