#include "rexspeed/engine/sweep_engine.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "rexspeed/engine/backend_registry.hpp"
#include "test_util.hpp"

namespace rexspeed::engine {
namespace {

using test::expect_identical_pair;
using test::expect_identical_panel;

/// The scenario's declared panel through the engine.
sweep::PanelSeries run_declared(const SweepEngine& engine,
                                const ScenarioSpec& spec) {
  return engine.run_axis(spec, *spec.sweep_parameter);
}

/// The same panel built by hand: the scenario's backend and default grid
/// straight through the generic panel sweep.
sweep::PanelSeries run_direct(const ScenarioSpec& spec) {
  return sweep::run_panel_sweep(
      make_backend(spec), spec.configuration, *spec.sweep_parameter,
      sweep::default_grid(*spec.sweep_parameter, spec.points),
      spec.sweep_options(nullptr));
}

TEST(SweepEngine, CompositeParallelIsBitIdenticalToSerial) {
  // A multi-thread pool must not change a single bit of any panel
  // relative to the serial run.
  ScenarioSpec spec = scenario_by_name("fig08");
  spec.points = 13;
  const auto reference =
      SweepEngine(SweepEngineOptions{.threads = 1}).run_scenario(spec);
  const auto parallel =
      SweepEngine(SweepEngineOptions{.threads = 4}).run_scenario(spec);
  ASSERT_EQ(reference.size(), 6u);
  ASSERT_EQ(reference.size(), parallel.size());
  for (std::size_t p = 0; p < reference.size(); ++p) {
    SCOPED_TRACE(sweep::to_string(reference[p].parameter));
    expect_identical_panel(reference[p], parallel[p]);
  }
}

TEST(SweepEngine, EngineRunMatchesDirectSweep) {
  ScenarioSpec spec = scenario_by_name("fig04");
  spec.points = 9;
  const SweepEngine engine;  // parallel by default
  expect_identical_panel(run_declared(engine, spec), run_direct(spec));
}

TEST(SweepEngine, RunScenarioDispatchesOnAllThreeKinds) {
  const SweepEngine engine;
  ScenarioSpec panel = scenario_by_name("fig05");
  panel.points = 5;
  ASSERT_EQ(panel.kind(), ScenarioKind::kSweep);
  EXPECT_EQ(engine.run_scenario(panel).size(), 1u);

  ScenarioSpec composite = scenario_by_name("fig08");
  composite.points = 3;
  ASSERT_EQ(composite.kind(), ScenarioKind::kAllSweeps);
  const auto panels = engine.run_scenario(composite);
  ASSERT_EQ(panels.size(), 6u);
  EXPECT_EQ(panels.front().parameter, sweep::SweepParameter::kCheckpointTime);
  EXPECT_EQ(panels.back().parameter, sweep::SweepParameter::kIoPower);

  // A solve has no panels: the historical fallthrough silently ran all six
  // sweeps; it must be rejected instead (solve_scenario / CampaignRunner
  // give the panel-free result).
  const ScenarioSpec solve = parse_scenario("config=Hera/XScale rho=3");
  ASSERT_EQ(solve.kind(), ScenarioKind::kSolve);
  EXPECT_THROW(engine.run_scenario(solve), std::invalid_argument);
}

TEST(SweepEngine, ScenarioOverridesReachTheSweptModel) {
  // fig03 sweeps V on Atlas/Crusoe; a lambda override must flow into every
  // grid point (run used to rebuild params from the configuration alone).
  ScenarioSpec spec = scenario_by_name("fig03");
  spec.points = 5;
  const SweepEngine engine(SweepEngineOptions{.threads = 1});
  const auto base = run_declared(engine, spec);

  spec.overrides.push_back({"lambda", 5e-4});
  const auto overridden = run_declared(engine, spec);
  ASSERT_EQ(base.points.size(), overridden.points.size());
  EXPECT_NE(base.points[2].primary.pair().w_opt,
            overridden.points[2].primary.pair().w_opt);
  expect_identical_panel(overridden, run_direct(spec));
}

TEST(SweepEngine, SerialEngineHandsOutNoPool) {
  const SweepEngine serial(SweepEngineOptions{.threads = 1});
  EXPECT_EQ(serial.pool(), nullptr);
  EXPECT_EQ(serial.thread_count(), 1u);

  const SweepEngine parallel(SweepEngineOptions{.threads = 3});
  EXPECT_NE(parallel.pool(), nullptr);
  EXPECT_EQ(parallel.thread_count(), 3u);

  // Serial and parallel engines agree bit for bit.
  ScenarioSpec spec = scenario_by_name("fig02");
  spec.points = 7;
  expect_identical_panel(run_declared(serial, spec),
                         run_declared(parallel, spec));
}

TEST(SweepEngine, RhoSweepSharedBackendMatchesPerPointSolves) {
  // A ρ panel reuses one prepared backend across the grid; every point
  // must still equal an independent solve at that bound.
  const SweepEngine engine;
  ScenarioSpec spec = scenario_by_name("fig05");
  spec.points = 11;
  const auto series = run_declared(engine, spec);
  const std::unique_ptr<core::SolverBackend> backend = make_backend(spec);
  backend->prepare();
  for (const auto& point : series.points) {
    const core::Solution expected =
        backend->solve(point.x, core::SpeedPolicy::kTwoSpeed,
                       /*min_rho_fallback=*/true);
    expect_identical_pair(point.primary.pair(), expected.pair());
    EXPECT_EQ(point.primary.used_fallback, expected.used_fallback);
  }
}

}  // namespace
}  // namespace rexspeed::engine
