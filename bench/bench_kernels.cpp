// Batched vs pointwise ρ-grid evaluation: one ρ panel (both speed
// policies at every bound) answered twice off ONE prepared backend —
//
//   pointwise — a loop of backend.solve_panel_point, one grid point at a
//     time, every point walking the K² cached expansions;
//   batched   — one backend.solve_batch call for the whole grid:
//     kernels::eval_pairs streams the SoA cache once per bound (first
//     order), kernels::classify_pairs triages the cached exact curves
//     (exact-opt), winners reconstructed per point.
//
// The two runs must agree bit for bit; the bench fails on any mismatch.
// Emits BENCH_kernels.json with both timings and the speedup next to the
// ≥2× target. The cache build (prepare) is excluded from the timings.
//
// Usage: bench_kernels [--points=2001] [--exact-points=201] [--repeats=5]
//                      [--json=BENCH_kernels.json]

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "rexspeed/core/kernels/kernel_dispatch.hpp"
#include "rexspeed/core/solver_backend.hpp"
#include "rexspeed/io/cli.hpp"
#include "rexspeed/platform/configuration.hpp"
#include "rexspeed/sweep/figure_sweeps.hpp"

using namespace rexspeed;

namespace {

using Clock = std::chrono::steady_clock;

constexpr bool kFallback = true;  // the paper figures' min-ρ fallback

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Both answers for one grid, each timed as the minimum over `repeats`
/// (the least-noise estimate).
struct Timed {
  std::vector<core::PanelPoint> pointwise;
  std::vector<core::PanelPoint> batched;
  double pointwise_s = 1e300;
  double batched_s = 1e300;
};

Timed run_timed(const core::SolverBackend& backend,
                const std::vector<double>& grid, std::size_t repeats) {
  Timed result;
  result.pointwise.resize(grid.size());
  result.batched.resize(grid.size());
  for (std::size_t r = 0; r < repeats; ++r) {
    auto start = Clock::now();
    for (std::size_t i = 0; i < grid.size(); ++i) {
      result.pointwise[i] = backend.solve_panel_point(
          core::SweepAxis::kPerformanceBound, grid[i], grid[i], kFallback);
    }
    result.pointwise_s = std::min(result.pointwise_s, seconds_since(start));
    start = Clock::now();
    backend.solve_batch(core::SweepAxis::kPerformanceBound, grid.data(),
                        grid.size(), grid.front(), kFallback,
                        result.batched.data());
    result.batched_s = std::min(result.batched_s, seconds_since(start));
  }
  return result;
}

/// Bit-identity between the two answers — any difference is a kernel bug,
/// not noise, so the bench hard-fails.
bool identical(const std::vector<core::PanelPoint>& a,
               const std::vector<core::PanelPoint>& b) {
  for (std::size_t i = 0; i < a.size(); ++i) {
    const core::PanelPoint& p = a[i];
    const core::PanelPoint& q = b[i];
    if (p.x != q.x ||
        p.primary.pair.energy_overhead != q.primary.pair.energy_overhead ||
        p.primary.pair.w_opt != q.primary.pair.w_opt ||
        p.primary.pair.sigma1 != q.primary.pair.sigma1 ||
        p.primary.pair.sigma2 != q.primary.pair.sigma2 ||
        p.primary.used_fallback != q.primary.used_fallback ||
        p.baseline.pair.energy_overhead !=
            q.baseline.pair.energy_overhead) {
      std::fprintf(stderr, "MISMATCH at x=%g: batched != pointwise\n", p.x);
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) try {
  const io::ArgParser args(argc, argv);
  const auto points =
      static_cast<std::size_t>(args.get_long_or("points", 2001));
  const auto exact_points =
      static_cast<std::size_t>(args.get_long_or("exact-points", 201));
  const auto repeats =
      static_cast<std::size_t>(args.get_long_or("repeats", 5));
  const std::string json_path = args.get_or("json", "BENCH_kernels.json");

  const auto params = core::ModelParams::from_configuration(
      platform::configuration_by_name("Hera/XScale"));
  const char* tier =
      core::kernels::to_string(core::kernels::active_tier());
  std::printf("build tier: %s\n", tier);

  const std::vector<double> grid = sweep::default_grid(
      sweep::SweepParameter::kPerformanceBound, points);
  std::printf("first-order rho sweep: %zu points, %zu pairs/point\n",
              grid.size(), params.speeds.size() * params.speeds.size());
  core::ClosedFormBackend first_order(params, core::EvalMode::kFirstOrder);
  first_order.prepare();
  const Timed fo = run_timed(first_order, grid, repeats);
  if (!identical(fo.batched, fo.pointwise)) return 1;
  const double speedup = fo.pointwise_s / fo.batched_s;
  std::printf("  pointwise: %9.5f s  (%9.0f points/s)\n", fo.pointwise_s,
              grid.size() / fo.pointwise_s);
  std::printf("  batched:   %9.5f s  (%9.0f points/s)  %.2fx\n",
              fo.batched_s, grid.size() / fo.batched_s, speedup);

  const std::vector<double> exact_grid = sweep::default_grid(
      sweep::SweepParameter::kPerformanceBound, exact_points);
  std::printf("exact-opt rho sweep: %zu points (classify kernel)\n",
              exact_grid.size());
  core::ExactOptBackend exact(params);
  exact.prepare();
  const Timed ex = run_timed(exact, exact_grid, repeats);
  if (!identical(ex.batched, ex.pointwise)) return 1;
  const double exact_speedup = ex.pointwise_s / ex.batched_s;
  std::printf("  pointwise: %9.5f s\n", ex.pointwise_s);
  std::printf("  batched:   %9.5f s  %.2fx\n", ex.batched_s, exact_speedup);

  bench::BenchReport report("bench_kernels", "Hera/XScale");
  report.metric("kernel_tier", std::string(tier))
      .metric("points", grid.size())
      .metric("speed_pairs", params.speeds.size() * params.speeds.size())
      .metric("pointwise_s", fo.pointwise_s)
      .metric("batched_s", fo.batched_s)
      .metric("batched_speedup", speedup)
      .metric("exact_points", exact_grid.size())
      .metric("exact_pointwise_s", ex.pointwise_s)
      .metric("exact_batched_s", ex.batched_s)
      .metric("exact_batched_speedup", exact_speedup)
      .metric("speedup_target", 2.0)
      .metric("bit_identical", true);
  if (!report.write(json_path)) return 1;
  if (speedup < 2.0) {
    std::fprintf(stderr,
                 "WARNING: batched speedup %.2fx below the 2x target "
                 "(build tier %s)\n",
                 speedup, tier);
  }
  return 0;
} catch (const std::exception& error) {
  std::fprintf(stderr, "error: %s\n", error.what());
  return 1;
}
