// Recall-mode bench: quantifies the two costs the partial-recall closed
// forms (core/recall_solver) remove.
//
//   cached vs rebuild — a ρ sweep through ONE recall-mode
//     ClosedFormBackend (its construction pays the O(K²) first-order
//     expansion over the recall-scaled parameters once) vs constructing a
//     fresh backend per grid point, with bit-identity checked between the
//     two runs;
//   closed form vs simulator — evaluating the recall-exact expected
//     time/energy/corruption at every feasible optimum vs estimating the
//     same three quantities by fault-injection Monte Carlo, with
//     agreement checked to a loose stderr-scale tolerance.
//
// Emits BENCH_recall.json next to the textual report so the perf
// trajectory of the recall path is machine-readable (uploaded by CI like
// BENCH_kernels.json).
//
// Usage: bench_recall [--points=21] [--recall=0.8] [--replications=40]
//                     [--json=BENCH_recall.json]

#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>
#include <fstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "rexspeed/core/recall_solver.hpp"
#include "rexspeed/core/solver_backend.hpp"
#include "rexspeed/io/cli.hpp"
#include "rexspeed/platform/configuration.hpp"
#include "rexspeed/sim/monte_carlo.hpp"
#include "rexspeed/sim/simulator.hpp"
#include "rexspeed/sweep/figure_sweeps.hpp"

using namespace rexspeed;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

bool pairs_identical(const core::PairSolution& a,
                     const core::PairSolution& b) {
  return a.feasible == b.feasible && a.sigma1 == b.sigma1 &&
         a.sigma2 == b.sigma2 && a.w_opt == b.w_opt &&
         a.energy_overhead == b.energy_overhead &&
         a.time_overhead == b.time_overhead;
}

}  // namespace

int main(int argc, char** argv) try {
  const io::ArgParser args(argc, argv);
  const auto points =
      static_cast<std::size_t>(args.get_long_or("points", 21));
  const double recall = args.get_double_or("recall", 0.8);
  const auto replications =
      static_cast<std::size_t>(args.get_long_or("replications", 40));
  const std::string json_path = args.get_or("json", "BENCH_recall.json");

  const auto params = core::ModelParams::from_configuration(
      platform::configuration_by_name("Hera/XScale"));
  const std::vector<double> grid =
      sweep::default_grid(sweep::SweepParameter::kPerformanceBound, points);

  std::printf("recall sweep: %zu points, recall %.2f, %zu speeds\n\n",
              grid.size(), recall, params.speeds.size());

  // Cached: one prepared backend, the batched ρ path the sweep engine
  // uses.
  auto start = Clock::now();
  const core::ClosedFormBackend cached_backend(params, recall);
  std::vector<core::PanelPoint> cached(grid.size());
  cached_backend.solve_batch(core::SweepAxis::kPerformanceBound,
                             grid.data(), grid.size(), grid.front(), true,
                             cached.data());
  const double cached_s = seconds_since(start);

  // Rebuild: a fresh backend per grid point re-pays the expansion table.
  start = Clock::now();
  std::vector<core::PanelPoint> rebuilt(grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const core::ClosedFormBackend fresh(params, recall);
    fresh.solve_batch(core::SweepAxis::kPerformanceBound, &grid[i], 1,
                      grid[i], true, &rebuilt[i]);
  }
  const double rebuild_s = seconds_since(start);

  for (std::size_t i = 0; i < grid.size(); ++i) {
    if (!pairs_identical(cached[i].primary.pair, rebuilt[i].primary.pair)) {
      std::fprintf(stderr, "MISMATCH: cached vs rebuild at rho=%g\n",
                   grid[i]);
      return 1;
    }
  }

  // Closed forms vs simulator: the three recall-exact quantities at every
  // feasible optimum, evaluated then Monte-Carlo-estimated.
  struct Point {
    double w, s1, s2, time, energy, corrupt;
  };
  std::vector<Point> feasible;
  start = Clock::now();
  for (const core::PanelPoint& point : cached) {
    const core::PairSolution& sol = point.primary.pair;
    if (!sol.feasible) continue;
    feasible.push_back(
        {sol.w_opt, sol.sigma1, sol.sigma2,
         core::expected_time_recall(params, recall, sol.w_opt, sol.sigma1,
                                    sol.sigma2),
         core::expected_energy_recall(params, recall, sol.w_opt, sol.sigma1,
                                      sol.sigma2),
         core::recall_corruption_probability(params, recall, sol.w_opt,
                                             sol.sigma1, sol.sigma2)});
  }
  const double closed_form_s = seconds_since(start);

  sim::SimulatorOptions sim_options;
  sim_options.verification_recall = recall;
  const sim::Simulator simulator(params, sim::FaultInjector(params),
                                 sim_options);
  double max_rel_err = 0.0;
  start = Clock::now();
  for (std::size_t i = 0; i < feasible.size(); ++i) {
    const Point& point = feasible[i];
    const auto policy =
        sim::ExecutionPolicy::two_speed(point.w, point.s1, point.s2);
    sim::MonteCarloOptions mc_options;
    mc_options.replications = replications;
    mc_options.total_work = 20.0 * policy.pattern_work();
    mc_options.base_seed = 0xBE7C + i;
    const sim::MonteCarloResult mc =
        sim::run_monte_carlo(simulator, policy, mc_options);
    const double rel = std::abs(mc.time_overhead.mean() -
                                point.time / point.w) /
                       (point.time / point.w);
    max_rel_err = std::max(max_rel_err, rel);
  }
  const double simulator_s = seconds_since(start);
  if (max_rel_err > 0.05) {
    std::fprintf(stderr,
                 "MISMATCH: simulated time overhead off by %.3g relative\n",
                 max_rel_err);
    return 1;
  }

  std::printf("cached sweep:      %10.6f s  (%8.1f points/s)\n", cached_s,
              grid.size() / cached_s);
  std::printf("per-point rebuild: %10.6f s  (%8.1f points/s)  %.2fx\n",
              rebuild_s, grid.size() / rebuild_s, rebuild_s / cached_s);
  std::printf("closed forms:      %10.6f s  (%zu feasible points)\n",
              closed_form_s, feasible.size());
  std::printf("simulator:         %10.6f s  %.0fx the closed forms "
              "(max time rel. err %.2e)\n",
              simulator_s, simulator_s / closed_form_s, max_rel_err);

  bench::BenchReport report("bench_recall", "Hera/XScale");
  report.metric("points", grid.size())
      .metric("recall", recall)
      .metric("feasible_points", feasible.size())
      .metric("cached_sweep_s", cached_s)
      .metric("rebuild_sweep_s", rebuild_s)
      .metric("cached_speedup", rebuild_s / cached_s)
      .metric("closed_form_s", closed_form_s)
      .metric("simulator_s", simulator_s)
      .metric("simulator_replications", replications)
      .metric("closed_form_speedup", simulator_s / closed_form_s)
      .metric("max_time_rel_err", max_rel_err);
  if (!report.write(json_path)) return 1;
  return 0;
} catch (const std::exception& error) {
  std::fprintf(stderr, "error: %s\n", error.what());
  return 1;
}
