// Micro-benchmarks (google-benchmark): the paper argues the O(K²) BiCrit
// procedure is "constant time" for practical speed-set sizes — these
// benches measure it, alongside the exact numeric optimizer it replaces
// and the simulator's pattern throughput.

#include <benchmark/benchmark.h>

#include "rexspeed/core/bicrit_solver.hpp"
#include "rexspeed/core/exact_expectations.hpp"
#include "rexspeed/core/solver_backend.hpp"
#include "rexspeed/platform/configuration.hpp"
#include "rexspeed/sim/simulator.hpp"
#include "rexspeed/sweep/grid.hpp"
#include "rexspeed/sweep/panel_sweep.hpp"

using namespace rexspeed;

namespace {

core::ModelParams hera_xscale() {
  return core::ModelParams::from_configuration(
      platform::configuration_by_name("Hera/XScale"));
}

void BM_SolveFirstOrder(benchmark::State& state) {
  // The paper's full O(K²) procedure with K = 5 real speeds.
  const core::BiCritSolver solver(hera_xscale());
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.solve(3.0));
  }
}
BENCHMARK(BM_SolveFirstOrder);

void BM_SolverConstruction(benchmark::State& state) {
  // Cost of precomputing the K² expansions — what a shared context pays
  // once and the per-call path used to pay on every solve.
  const auto params = hera_xscale();
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::BiCritSolver(params));
  }
}
BENCHMARK(BM_SolverConstruction);

void BM_RhoSweepColdSolverPerPoint(benchmark::State& state) {
  // The pre-engine sweep shape: every grid point of a ρ sweep rebuilt the
  // solver, recomputing all first-order expansions 51 times per panel.
  const auto params = hera_xscale();
  const auto grid = sweep::linspace(1.0, 3.5, 51);
  for (auto _ : state) {
    double acc = 0.0;
    for (const double rho : grid) {
      const core::BiCritSolver solver(params);
      acc += solver.solve(rho).best.energy_overhead;
      acc += solver.solve(rho, core::SpeedPolicy::kSingleSpeed)
                 .best.energy_overhead;
    }
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_RhoSweepColdSolverPerPoint);

void BM_RhoSweepSharedBackend(benchmark::State& state) {
  // The engine's ρ-sweep fast path: one prepared backend serves the whole
  // grid, so repeated solves are cheap lookups + feasibility math.
  const auto params = hera_xscale();
  const auto grid = sweep::linspace(1.0, 3.5, 51);
  for (auto _ : state) {
    const auto backend =
        core::make_mode_backend(params, core::EvalMode::kFirstOrder);
    backend->prepare();
    double acc = 0.0;
    for (const double rho : grid) {
      acc += backend->solve(rho).pair.energy_overhead;
      acc += backend->solve(rho, core::SpeedPolicy::kSingleSpeed)
                 .pair.energy_overhead;
    }
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_RhoSweepSharedBackend);

void BM_SolveFirstOrderScalesWithK(benchmark::State& state) {
  // Synthetic speed sets of growing size to exhibit the K² scaling.
  auto params = hera_xscale();
  const auto k = static_cast<std::size_t>(state.range(0));
  params.speeds.clear();
  for (std::size_t i = 0; i < k; ++i) {
    params.speeds.push_back(0.1 + 0.9 * static_cast<double>(i) /
                                      static_cast<double>(k - 1));
  }
  const core::BiCritSolver solver(params);
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.solve(3.0));
  }
  state.SetComplexityN(static_cast<std::int64_t>(k));
}
BENCHMARK(BM_SolveFirstOrderScalesWithK)
    ->RangeMultiplier(2)
    ->Range(4, 64)
    ->Complexity(benchmark::oNSquared);

void BM_SolveExactOptimize(benchmark::State& state) {
  const core::BiCritSolver solver(hera_xscale());
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.solve(
        3.0, core::SpeedPolicy::kTwoSpeed, core::EvalMode::kExactOptimize));
  }
}
BENCHMARK(BM_SolveExactOptimize);

void BM_ExactExpectationEvaluation(benchmark::State& state) {
  const auto params = hera_xscale();
  double w = 2764.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::expected_energy(params, w, 0.4, 0.8));
  }
}
BENCHMARK(BM_ExactExpectationEvaluation);

void BM_SimulatorPatternThroughput(benchmark::State& state) {
  auto params = hera_xscale();
  params.lambda_silent *= 50.0;
  const sim::Simulator simulator(params);
  const auto policy = sim::ExecutionPolicy::two_speed(2764.0, 0.4, 0.4);
  sim::Xoshiro256 rng(1);
  const double work_per_run = 100 * 2764.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(simulator.run(policy, work_per_run, rng));
  }
  state.SetItemsProcessed(state.iterations() * 100);  // patterns
}
BENCHMARK(BM_SimulatorPatternThroughput);

/// One 51-point first-order Atlas/Crusoe panel over `axis`.
sweep::PanelSeries atlas_crusoe_panel(sweep::SweepParameter axis) {
  return sweep::run_panel_sweep(
      core::make_mode_backend(
          core::ModelParams::from_configuration(
              platform::configuration_by_name("Atlas/Crusoe")),
          core::EvalMode::kFirstOrder),
      "Atlas/Crusoe", axis, sweep::default_grid(axis, 51));
}

void BM_FigureSweepPanel(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        atlas_crusoe_panel(sweep::SweepParameter::kCheckpointTime));
  }
}
BENCHMARK(BM_FigureSweepPanel);

void BM_FigureSweepRhoPanel(benchmark::State& state) {
  // ρ panel: exercises the shared-backend fast path end to end.
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        atlas_crusoe_panel(sweep::SweepParameter::kPerformanceBound));
  }
}
BENCHMARK(BM_FigureSweepRhoPanel);

}  // namespace

BENCHMARK_MAIN();
