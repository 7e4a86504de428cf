// Interleaved verification as a first-class solver mode: the paper's
// verify-then-checkpoint pattern is the m = 1 special case of the
// segmented patterns of its related work (§6). This example runs the
// whole stack on one scenario:
//
//   1. an interleaved solve (best speed pair AND best segment count),
//      next to the paper's m = 1 solve — same machinery, pinned count;
//   2. the overhead-vs-segments panel through the parallel SweepEngine;
//   3. a Monte-Carlo cross-check of the chosen policy against the
//      interleaved closed forms (the tests/sim suite does this with
//      seeded confidence intervals; here it is a demo).
//
// Usage:
//   interleaved_verification [--config=Hera/XScale] [--rho=5]
//                            [--max-segments=8] [--lambda=1e-3] [--V=1]

#include <cstdio>
#include <exception>
#include <string>

#include "rexspeed/core/interleaved.hpp"
#include "rexspeed/engine/scenario.hpp"
#include "rexspeed/engine/sweep_engine.hpp"
#include "rexspeed/io/cli.hpp"
#include "rexspeed/io/table_writer.hpp"
#include "rexspeed/sim/monte_carlo.hpp"

using namespace rexspeed;

int main(int argc, char** argv) try {
  const io::ArgParser args(argc, argv);

  // Frequent errors + cheap checks by default: the regime where early
  // detection pays and the solver picks m > 1.
  engine::ScenarioSpec spec;
  spec.name = "interleaved_demo";
  spec.configuration = args.get_or("config", "Hera/XScale");
  spec.rho = args.get_double_or("rho", 5.0);
  spec.max_segments =
      static_cast<unsigned>(args.get_long_or("max-segments", 8));
  spec.sweep_parameter = sweep::SweepParameter::kSegments;
  spec.overrides.push_back({"lambda", args.get_double_or("lambda", 1e-3)});
  spec.overrides.push_back({"V", args.get_double_or("V", 1.0)});

  // 1. Solve: best segmented pattern vs the paper's single verification.
  const core::InterleavedSolution best =
      engine::solve_scenario(spec).interleaved();
  engine::ScenarioSpec pinned = spec;
  pinned.max_segments = 0;
  pinned.segments = 1;
  const core::InterleavedSolution single =
      engine::solve_scenario(pinned).interleaved();
  if (!best.feasible || !single.feasible) {
    std::printf("infeasible at rho = %g\n", spec.rho);
    return 1;
  }
  std::printf("%s at rho = %g, lambda = %g, V = %g\n",
              spec.configuration.c_str(), spec.rho,
              spec.overrides[0].value, spec.overrides[1].value);
  std::printf("  paper pattern (m=1): (%.2f, %.2f) Wopt=%.0f E/W=%.1f\n",
              single.sigma1, single.sigma2, single.w_opt,
              single.energy_overhead);
  std::printf("  best segmented:      (%.2f, %.2f) Wopt=%.0f E/W=%.1f "
              "with m=%u  (%.1f%% saved)\n\n",
              best.sigma1, best.sigma2, best.w_opt, best.energy_overhead,
              best.segments,
              100.0 * (1.0 - best.energy_overhead / single.energy_overhead));

  // 2. The overhead-vs-segments panel, parallel by default.
  const engine::SweepEngine engine;
  const sweep::PanelSeries panel =
      engine.run_axis(spec, sweep::SweepParameter::kSegments);
  io::TableWriter table({"m", "sigma1", "sigma2", "Wopt", "E/W",
                         "saved vs m=1 %"});
  for (const auto& point : panel.points) {
    const core::InterleavedSolution& pattern = point.primary.interleaved();
    if (!pattern.feasible) continue;
    table.add_row({io::TableWriter::cell(point.x, 0),
                   io::TableWriter::cell(pattern.sigma1, 2),
                   io::TableWriter::cell(pattern.sigma2, 2),
                   io::TableWriter::cell(pattern.w_opt, 0),
                   io::TableWriter::cell(pattern.energy_overhead, 1),
                   io::TableWriter::cell(100.0 * point.energy_saving(), 2)});
  }
  std::printf("%s\n", table.str().c_str());

  // 3. Monte-Carlo cross-check of the chosen policy.
  const sim::Simulator simulator(spec.resolve_params());
  sim::MonteCarloOptions options;
  options.replications = 200;
  options.total_work = 50.0 * best.w_opt;
  options.base_seed = 42;
  const sim::MonteCarloResult mc = sim::run_monte_carlo(
      simulator,
      sim::ExecutionPolicy::segmented(best.w_opt, best.segments, best.sigma1,
                                      best.sigma2),
      options);
  std::printf("Monte-Carlo check (%zu reps): T/W model %.4f | simulated "
              "%.4f +/- %.4f\n",
              options.replications, best.time_overhead,
              mc.time_overhead.mean(), mc.time_ci.half_width());
  std::printf("                            E/W model %.1f | simulated "
              "%.1f +/- %.1f\n",
              best.energy_overhead, mc.energy_overhead.mean(),
              mc.energy_ci.half_width());
  return 0;
} catch (const std::exception& error) {
  std::fprintf(stderr, "error: %s\n", error.what());
  return 1;
}
