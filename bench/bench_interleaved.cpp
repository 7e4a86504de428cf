// Cached-context gain of the interleaved backend: a ρ sweep of the
// best segmented pattern (best speed pair × best segment count), run
// three ways with identical results:
//
//   per-point rebuild — no cache: every grid point re-optimizes W for
//     every (σ1, σ2, m) from scratch via optimize_interleaved;
//   cached serial     — ONE core::InterleavedBackend pays the per-(σ1,σ2,m)
//     curve optimization once (its prepare() included in the timing);
//     every point is then feasibility math on the cached expansions;
//   cached parallel   — the same backend behind SweepEngine's interleaved
//     panel, grid points across the pool.
//
// Emits BENCH_interleaved.json next to the textual report so the perf
// trajectory of the interleaved path is machine-readable.
//
// Usage: bench_interleaved [--points=21] [--max-segments=8] [--threads=0]
//                          [--json=BENCH_interleaved.json]

#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>
#include <fstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "rexspeed/core/interleaved.hpp"
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

/// The uncached baseline: best pattern over every pair and count, built
/// from scratch for one bound.
core::InterleavedSolution solve_uncached(const core::ModelParams& params,
                                         double rho, unsigned max_segments) {
  core::InterleavedSolution best;
  bool first = true;
  for (const double sigma1 : params.speeds) {
    for (const double sigma2 : params.speeds) {
      const core::InterleavedSolution candidate = core::optimize_interleaved(
          params, rho, sigma1, sigma2, max_segments);
      if (!candidate.feasible) continue;
      if (first || candidate.energy_overhead < best.energy_overhead) {
        best = candidate;
        first = false;
      }
    }
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) try {
  const io::ArgParser args(argc, argv);
  const auto points =
      static_cast<std::size_t>(args.get_long_or("points", 21));
  const auto max_segments =
      static_cast<unsigned>(args.get_long_or("max-segments", 8));
  const auto threads = static_cast<unsigned>(args.get_long_or("threads", 0));
  const std::string json_path =
      args.get_or("json", "BENCH_interleaved.json");

  const auto params = core::ModelParams::from_configuration(
      platform::configuration_by_name("Hera/XScale"));
  const std::vector<double> grid =
      sweep::default_grid(sweep::SweepParameter::kPerformanceBound, points);

  std::printf("interleaved rho sweep: %zu points, %zu speeds -> %zu pairs, "
              "m up to %u\n\n",
              grid.size(), params.speeds.size(),
              params.speeds.size() * params.speeds.size(), max_segments);

  // Per-point rebuild (the pre-cache path).
  auto start = Clock::now();
  std::vector<core::InterleavedSolution> uncached;
  uncached.reserve(grid.size());
  for (const double rho : grid) {
    uncached.push_back(solve_uncached(params, rho, max_segments));
  }
  const double naive_s = seconds_since(start);

  // Cached serial, construction included.
  start = Clock::now();
  core::InterleavedBackend backend(params, max_segments);
  backend.prepare();
  std::vector<core::InterleavedSolution> cached;
  cached.reserve(grid.size());
  for (const double rho : grid) {
    cached.push_back(
        backend.solve(rho, core::SpeedPolicy::kTwoSpeed, false).interleaved);
  }
  const double cached_s = seconds_since(start);

  // Cached parallel through the engine's interleaved panel.
  engine::ScenarioSpec spec;
  spec.name = "bench";
  spec.configuration = "Hera/XScale";
  spec.max_segments = max_segments;
  spec.points = points;
  spec.sweep_parameter = sweep::SweepParameter::kPerformanceBound;
  const engine::SweepEngine engine({.threads = threads});
  start = Clock::now();
  const sweep::PanelSeries panel =
      engine.run_axis(spec, sweep::SweepParameter::kPerformanceBound);
  const double parallel_s = seconds_since(start);

  // The two code paths must agree (boundary bisection vs golden section
  // inside the feasible window: same optimum within numeric tolerance).
  double max_rel_err = 0.0;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    if (uncached[i].feasible != cached[i].feasible) {
      std::fprintf(stderr, "MISMATCH at rho=%g: feasibility differs\n",
                   grid[i]);
      return 1;
    }
    if (!cached[i].feasible) continue;
    max_rel_err = std::max(
        max_rel_err, std::abs(cached[i].energy_overhead -
                              uncached[i].energy_overhead) /
                         uncached[i].energy_overhead);
  }
  if (max_rel_err > 1e-6) {
    std::fprintf(stderr, "MISMATCH: cached vs uncached energy differs by "
                 "%.3g\n", max_rel_err);
    return 1;
  }

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

  bench::BenchReport report("bench_interleaved", "Hera/XScale");
  report.metric("points", grid.size())
      .metric("max_segments", max_segments)
      .metric("speed_pairs", params.speeds.size() * params.speeds.size())
      .metric("per_point_rebuild_s", naive_s)
      .metric("cached_serial_s", cached_s)
      .metric("cached_parallel_s", parallel_s)
      .metric("threads", engine.thread_count())
      .metric("cached_speedup", naive_s / cached_s)
      .metric("parallel_speedup", naive_s / parallel_s)
      .metric("max_energy_rel_err", max_rel_err);
  if (!report.write(json_path)) return 1;
  return 0;
} catch (const std::exception& error) {
  std::fprintf(stderr, "error: %s\n", error.what());
  return 1;
}
