#include "rexspeed/engine/campaign_runner.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "rexspeed/engine/backend_registry.hpp"
#include "rexspeed/engine/sweep_engine.hpp"
#include "rexspeed/store/serialize.hpp"
#include "test_util.hpp"

namespace rexspeed::engine {
namespace {

using test::expect_identical_panel;
using test::expect_identical_solution;

TEST(CampaignRunner, FlattenedParallelCampaignIsBitIdenticalToSerialRuns) {
  // The tentpole requirement: a campaign over several registry scenarios —
  // single panels, a ρ sweep (shared-backend fast path) and six-panel
  // composites — through one multi-worker pool must reproduce, bit for
  // bit, what each scenario yields when run alone with threads = 1.
  std::vector<ScenarioSpec> specs = {
      scenario_by_name("fig02"), scenario_by_name("fig05"),
      scenario_by_name("fig08"), scenario_by_name("fig13")};
  for (auto& spec : specs) spec.points = 7;

  const CampaignRunner parallel(CampaignRunnerOptions{.threads = 4});
  ASSERT_NE(parallel.pool(), nullptr);
  const auto results = parallel.run(specs);
  ASSERT_EQ(results.size(), specs.size());

  const SweepEngine serial(SweepEngineOptions{.threads = 1});
  for (std::size_t s = 0; s < specs.size(); ++s) {
    SCOPED_TRACE(specs[s].name);
    EXPECT_EQ(results[s].spec.name, specs[s].name);
    const auto reference = serial.run_scenario(specs[s]);
    ASSERT_EQ(results[s].panels.size(), reference.size());
    for (std::size_t p = 0; p < reference.size(); ++p) {
      SCOPED_TRACE(sweep::to_string(reference[p].parameter));
      expect_identical_panel(results[s].panels[p], reference[p]);
    }
  }
}

TEST(CampaignRunner, WholeRegistryCampaignMatchesPerScenarioSerialRuns) {
  // The acceptance bar: ALL registry scenarios through one pool — the
  // paper figures, the exact backend and the interleaved extensions
  // alike — every panel bit-identical to running each scenario alone
  // serially. One comparison for every mode, now that every backend
  // produces the same PanelSeries.
  std::vector<ScenarioSpec> specs = scenario_registry();
  for (auto& spec : specs) spec.points = 5;
  const auto results =
      CampaignRunner(CampaignRunnerOptions{.threads = 4}).run(specs);
  ASSERT_EQ(results.size(), specs.size());

  const SweepEngine serial(SweepEngineOptions{.threads = 1});
  for (std::size_t s = 0; s < specs.size(); ++s) {
    SCOPED_TRACE(specs[s].name);
    const auto reference = serial.run_scenario(specs[s]);
    ASSERT_EQ(results[s].panels.size(), reference.size());
    for (std::size_t p = 0; p < reference.size(); ++p) {
      expect_identical_panel(results[s].panels[p], reference[p]);
    }
  }
}

TEST(CampaignRunner, SerialCampaignMatchesParallelCampaign) {
  std::vector<ScenarioSpec> specs = {scenario_by_name("fig04"),
                                     scenario_by_name("fig09")};
  for (auto& spec : specs) spec.points = 5;
  const CampaignRunner serial(CampaignRunnerOptions{.threads = 1});
  EXPECT_EQ(serial.pool(), nullptr);
  const auto a = serial.run(specs);
  const auto b = CampaignRunner(CampaignRunnerOptions{.threads = 3}).run(specs);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t s = 0; s < a.size(); ++s) {
    ASSERT_EQ(a[s].panels.size(), b[s].panels.size());
    for (std::size_t p = 0; p < a[s].panels.size(); ++p) {
      expect_identical_panel(a[s].panels[p], b[s].panels[p]);
    }
  }
}

TEST(CampaignRunner, CostWeightOrderingDoesNotChangeResults) {
  // The campaign-level scheduler orders whole panels longest-first by
  // points × the backend's cost weight, so a mixed-mode campaign (cheap
  // first-order panels up front in scenario order, heavy interleaved and
  // exact panels last) exercises a genuinely reordered stream. Results
  // must not move a bit relative to per-scenario serial runs — ordering
  // is a latency lever, never a semantic one.
  ScenarioSpec cheap = scenario_by_name("fig02");
  cheap.points = 9;
  ScenarioSpec exact = scenario_by_name("exact_rho");
  exact.points = 5;
  ScenarioSpec heavy = scenario_by_name("interleaved_rho");
  heavy.points = 7;
  const ScenarioSpec solve = parse_scenario("name=pt config=Hera/XScale");
  const std::vector<ScenarioSpec> specs = {cheap, solve, exact, heavy};

  const SweepEngine serial(SweepEngineOptions{.threads = 1});
  for (const unsigned threads : {1u, 4u}) {
    SCOPED_TRACE(threads);
    const auto results =
        CampaignRunner(CampaignRunnerOptions{.threads = threads}).run(specs);
    ASSERT_EQ(results.size(), specs.size());
    for (std::size_t s = 0; s < specs.size(); ++s) {
      SCOPED_TRACE(specs[s].name);
      if (specs[s].kind() == ScenarioKind::kSolve) {
        expect_identical_solution(results[s].solution,
                                  solve_scenario(specs[s]));
        continue;
      }
      const auto reference = serial.run_scenario(specs[s]);
      ASSERT_EQ(results[s].panels.size(), reference.size());
      for (std::size_t p = 0; p < reference.size(); ++p) {
        expect_identical_panel(results[s].panels[p], reference[p]);
      }
    }
  }
}

TEST(CampaignRunner, PanelsWithoutABackendCacheMatchSweepEngineRuns) {
  // First-order panels have no deferred backend cache: the prepare
  // barrier only sizes their series. Their results must still be the
  // bytes each scenario yields through the sweep engine, whose panels
  // size themselves in PanelSweep::run.
  std::vector<ScenarioSpec> specs = {
      scenario_by_name("fig02"), scenario_by_name("fig03"),
      scenario_by_name("fig06"), scenario_by_name("fig08")};
  for (auto& spec : specs) {
    spec.points = 101;
    ASSERT_FALSE(make_backend(spec, spec.resolve_params())->needs_prepare())
        << spec.name;
  }
  for (const unsigned threads : {1u, 4u}) {
    SCOPED_TRACE(threads);
    const auto results =
        CampaignRunner(CampaignRunnerOptions{.threads = threads}).run(specs);
    const SweepEngine engine(SweepEngineOptions{.threads = threads});
    ASSERT_EQ(results.size(), specs.size());
    for (std::size_t s = 0; s < specs.size(); ++s) {
      SCOPED_TRACE(specs[s].name);
      const auto reference = engine.run_scenario(specs[s]);
      ASSERT_EQ(results[s].panels.size(), reference.size());
      for (std::size_t p = 0; p < reference.size(); ++p) {
        ASSERT_EQ(results[s].panels[p].points.size(), 101u);
        EXPECT_EQ(store::serialize_panel_series(results[s].panels[p]),
                  store::serialize_panel_series(reference[p]));
      }
    }
  }
}

TEST(CampaignRunner, SolveScenariosGetPanelFreeResults) {
  // kSolve rides the same task stream but yields a solution, not panels —
  // including the min-ρ fallback flag solve_scenario reports.
  const ScenarioSpec plain = parse_scenario("config=Hera/XScale rho=3");
  const ScenarioSpec degraded =
      parse_scenario("config=Atlas/Crusoe rho=1.0");
  const CampaignRunner runner(CampaignRunnerOptions{.threads = 2});
  const auto results = runner.run({plain, degraded});
  ASSERT_EQ(results.size(), 2u);
  EXPECT_TRUE(results[0].panels.empty());
  EXPECT_TRUE(results[1].panels.empty());

  expect_identical_solution(results[0].solution, solve_scenario(plain));
  EXPECT_FALSE(results[0].solution.used_fallback);

  expect_identical_solution(results[1].solution, solve_scenario(degraded));
  EXPECT_TRUE(results[1].solution.used_fallback);
}

TEST(CampaignRunner, MixedKindCampaignKeepsScenarioOrder) {
  ScenarioSpec sweep_spec = scenario_by_name("fig06");
  sweep_spec.points = 5;
  ScenarioSpec composite = scenario_by_name("fig10");
  composite.points = 3;
  const ScenarioSpec solve = parse_scenario("name=pt config=Hera/XScale");
  const auto results =
      CampaignRunner().run({sweep_spec, solve, composite});
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(results[0].spec.name, "fig06");
  EXPECT_EQ(results[0].panels.size(), 1u);
  EXPECT_EQ(results[1].spec.name, "pt");
  EXPECT_TRUE(results[1].panels.empty());
  EXPECT_TRUE(results[1].solution.feasible());
  EXPECT_EQ(results[2].spec.name, "fig10");
  EXPECT_EQ(results[2].panels.size(), 6u);
}

TEST(CampaignRunner, RunOneHandlesEveryKind) {
  const CampaignRunner runner(CampaignRunnerOptions{.threads = 2});
  ScenarioSpec spec = scenario_by_name("fig07");
  spec.points = 5;
  const auto panel = runner.run_one(spec);
  ASSERT_EQ(panel.panels.size(), 1u);
  expect_identical_panel(
      panel.panels.front(),
      SweepEngine(SweepEngineOptions{.threads = 1}).run_scenario(spec)[0]);

  const auto solve =
      runner.run_one(parse_scenario("config=Coastal/XScale rho=2"));
  EXPECT_TRUE(solve.panels.empty());
  EXPECT_TRUE(solve.solution.feasible());
}

TEST(CampaignRunner, EmptyCampaignYieldsNoResults) {
  EXPECT_TRUE(CampaignRunner().run({}).empty());
}

TEST(CampaignRunner, ResolutionErrorsThrowBeforeAnyTaskRuns) {
  ScenarioSpec bad;
  bad.configuration = "Nonexistent/Platform";
  EXPECT_THROW(CampaignRunner().run({scenario_by_name("fig02"), bad}),
               std::out_of_range);

  const ScenarioSpec invalid = parse_scenario("config=Hera/XScale C=-5");
  EXPECT_THROW(CampaignRunner().run({invalid}), std::invalid_argument);

  // A non-positive bound set programmatically (parse_scenario already
  // rejects it) must be caught in phase 1, never inside a pool worker.
  ScenarioSpec bad_solve = parse_scenario("config=Hera/XScale");
  bad_solve.rho = 0.0;
  EXPECT_THROW(CampaignRunner().run({bad_solve}), std::invalid_argument);
  ScenarioSpec bad_panel = scenario_by_name("fig02");
  bad_panel.rho = -2.0;
  EXPECT_THROW(CampaignRunner(CampaignRunnerOptions{.threads = 4})
                   .run({bad_panel}),
               std::invalid_argument);

  // Simulate-only dimensions are a plan-time rejection too.
  ScenarioSpec recall = scenario_by_name("fig02");
  recall.verification_recall = 0.9;
  EXPECT_THROW(CampaignRunner().run({recall}), std::invalid_argument);
}

}  // namespace
}  // namespace rexspeed::engine
