// Interleaved verification through the engine layer: scenario keys, the
// registry-built InterleavedBackend, SweepEngine's interleaved panels
// (parallel ≡ serial), the campaign runner's flattened stream
// (campaign ≡ standalone), and the simulator bridge.

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>

#include "rexspeed/engine/backend_registry.hpp"
#include "rexspeed/engine/campaign_runner.hpp"
#include "rexspeed/engine/scenario.hpp"
#include "rexspeed/engine/sweep_engine.hpp"
#include "test_util.hpp"

namespace rexspeed::engine {
namespace {

using test::expect_identical_interleaved;
using test::expect_identical_panel;

/// The hot-regime spec used throughout: frequent errors + cheap checks,
/// so the solver genuinely segments.
ScenarioSpec hot_spec() {
  ScenarioSpec spec = parse_scenario(
      "name=hot config=Hera/XScale rho=5 max_segments=6 param=rho "
      "points=7 lambda=1e-3 V=1");
  return spec;
}

std::unique_ptr<core::SolverBackend> prepared(const ScenarioSpec& spec) {
  return test::prepared(make_backend(spec));
}

TEST(InterleavedScenario, ParsesSegmentKeys) {
  const ScenarioSpec fixed =
      parse_scenario("config=Hera/XScale segments=4 param=none");
  EXPECT_TRUE(fixed.interleaved());
  EXPECT_EQ(fixed.segments, 4u);
  EXPECT_EQ(fixed.max_segments, 0u);
  EXPECT_EQ(fixed.segment_limit(), 4u);
  EXPECT_EQ(fixed.kind(), ScenarioKind::kSolve);

  const ScenarioSpec searched =
      parse_scenario("config=Hera/XScale max_segments=8 param=segments");
  EXPECT_TRUE(searched.interleaved());
  EXPECT_EQ(searched.segment_limit(), 8u);
  EXPECT_EQ(searched.sweep_parameter, sweep::SweepParameter::kSegments);

  const ScenarioSpec plain = parse_scenario("config=Hera/XScale");
  EXPECT_FALSE(plain.interleaved());
  EXPECT_EQ(plain.segment_limit(), 0u);

  // mode=interleaved alone is the paper's pattern through the
  // interleaved path (m = 1); explicit segment keys take precedence.
  const ScenarioSpec by_mode =
      parse_scenario("config=Hera/XScale mode=interleaved");
  EXPECT_TRUE(by_mode.interleaved());
  EXPECT_EQ(by_mode.segment_limit(), 1u);
  const ScenarioSpec combined =
      parse_scenario("config=Hera/XScale max_segments=8 mode=interleaved");
  EXPECT_EQ(combined.segment_limit(), 8u);

  // Explicit segment keys replace the mode's m = 1 default in EITHER
  // order — the mutual-exclusion check only trips on two user-set keys.
  const ScenarioSpec mode_then_cap =
      parse_scenario("config=Hera/XScale mode=interleaved max_segments=8");
  EXPECT_EQ(mode_then_cap.max_segments, 8u);
  const ScenarioSpec mode_then_fixed =
      parse_scenario("config=Hera/XScale mode=interleaved segments=4");
  EXPECT_EQ(mode_then_fixed.segments, 4u);
  EXPECT_EQ(mode_then_fixed.max_segments, 0u);
  const ScenarioSpec fixed_then_mode =
      parse_scenario("config=Hera/XScale segments=4 mode=interleaved");
  EXPECT_EQ(fixed_then_mode.segments, 4u);
  EXPECT_EQ(fixed_then_mode.max_segments, 0u);
}

TEST(InterleavedScenario, RejectsMalformedSegmentKeys) {
  EXPECT_THROW(parse_scenario("config=Hera/XScale segments=0"),
               std::invalid_argument);
  EXPECT_THROW(parse_scenario("config=Hera/XScale max_segments=0"),
               std::invalid_argument);
  EXPECT_THROW(parse_scenario("config=Hera/XScale segments=2.5"),
               std::invalid_argument);
  EXPECT_THROW(parse_scenario("config=Hera/XScale segments=-3"),
               std::invalid_argument);
  EXPECT_THROW(parse_scenario("config=Hera/XScale segments=999999"),
               std::invalid_argument);
  // Mutually exclusive, both orders.
  EXPECT_THROW(
      parse_scenario("config=Hera/XScale segments=2 max_segments=4"),
      std::invalid_argument);
  EXPECT_THROW(
      parse_scenario("config=Hera/XScale max_segments=4 segments=2"),
      std::invalid_argument);
  // The segments axis without interleaved mode is caught by validation.
  EXPECT_THROW(parse_scenario("config=Hera/XScale param=segments"),
               std::invalid_argument);
  // Interleaved scenarios only sweep rho or segments.
  EXPECT_THROW(
      parse_scenario("config=Hera/XScale max_segments=4 param=C"),
      std::invalid_argument);
}

TEST(InterleavedScenario, PanelAxesFollowTheSpec) {
  ScenarioSpec spec = hot_spec();
  ASSERT_EQ(scenario_panel_axes(spec).size(), 1u);
  EXPECT_EQ(scenario_panel_axes(spec)[0],
            sweep::SweepParameter::kPerformanceBound);

  spec.sweep_parameter = sweep::SweepParameter::kSegments;
  EXPECT_EQ(scenario_panel_axes(spec)[0],
            sweep::SweepParameter::kSegments);

  // param=all asks the backend: the interleaved backend advertises
  // exactly the ρ and segments axes.
  spec.sweep_parameter.reset();
  spec.all_panels = true;
  const auto axes = scenario_panel_axes(spec);
  ASSERT_EQ(axes.size(), 2u);
  EXPECT_EQ(axes[0], sweep::SweepParameter::kPerformanceBound);
  EXPECT_EQ(axes[1], sweep::SweepParameter::kSegments);

  spec.all_panels = false;  // kSolve: no panels
  EXPECT_THROW((void)scenario_panel_axes(spec), std::invalid_argument);
}

TEST(InterleavedBackendEngine, RegistryBackendMatchesDirectSolver) {
  // The registry-built backend IS a directly built InterleavedBackend:
  // bit-identical to driving one by hand, for the searched and the pinned
  // form alike.
  const ScenarioSpec spec = hot_spec();
  const std::unique_ptr<core::SolverBackend> backend = prepared(spec);
  EXPECT_EQ(backend->capabilities().kind, core::SolutionKind::kInterleaved);
  EXPECT_EQ(backend->capabilities().max_segments, 6u);

  core::InterleavedBackend direct(spec.resolve_params(), 6);
  direct.prepare();
  expect_identical_interleaved(
      backend->solve(5.0).interleaved(),
      direct.solve(5.0, core::SpeedPolicy::kTwoSpeed, false).interleaved());

  ScenarioSpec pinned = spec;
  pinned.max_segments = 0;
  pinned.segments = 3;
  expect_identical_interleaved(prepared(pinned)->solve(5.0).interleaved(),
                               direct.solve_segments(5.0, 3).interleaved());

  // The pair backends are untouched by the segment configuration.
  const std::unique_ptr<core::SolverBackend> pair =
      prepared(parse_scenario("config=Hera/XScale"));
  EXPECT_EQ(pair->capabilities().kind, core::SolutionKind::kPair);
  EXPECT_TRUE(pair->solve(3.0).feasible());
}

TEST(InterleavedScenario, SolveUsesFixedOrSearchedCount) {
  ScenarioSpec spec = hot_spec();
  spec.sweep_parameter.reset();
  const core::Solution searched = solve_scenario(spec);
  ASSERT_EQ(searched.kind(), core::SolutionKind::kInterleaved);
  ASSERT_TRUE(searched.feasible());
  EXPECT_GT(searched.segments(), 1u);

  ScenarioSpec pinned = spec;
  pinned.max_segments = 0;
  pinned.segments = 2;
  const core::Solution fixed = solve_scenario(pinned);
  ASSERT_TRUE(fixed.feasible());
  EXPECT_EQ(fixed.segments(), 2u);

  // A non-interleaved spec yields a pair solution through the very same
  // entry point — the mode dispatch lives in the registry now.
  const core::Solution pair =
      solve_scenario(parse_scenario("config=Hera/XScale"));
  EXPECT_EQ(pair.kind(), core::SolutionKind::kPair);
  EXPECT_EQ(pair.segments(), 1u);
}

TEST(SweepEngineInterleaved, ParallelPanelsAreBitIdenticalToSerial) {
  // Both axes, a multi-worker engine vs a forced-serial one.
  ScenarioSpec spec = hot_spec();
  spec.all_panels = true;
  spec.sweep_parameter.reset();
  const SweepEngine parallel(SweepEngineOptions{.threads = 4});
  const SweepEngine serial(SweepEngineOptions{.threads = 1});
  ASSERT_NE(parallel.pool(), nullptr);
  EXPECT_EQ(serial.pool(), nullptr);
  const auto a = parallel.run_scenario(spec);
  const auto b = serial.run_scenario(spec);
  ASSERT_EQ(a.size(), 2u);
  ASSERT_EQ(b.size(), 2u);
  for (std::size_t p = 0; p < a.size(); ++p) {
    SCOPED_TRACE(sweep::to_string(a[p].parameter));
    expect_identical_panel(a[p], b[p]);
  }
  // The segments panel carries the baseline at every x and x = m.
  const sweep::PanelSeries& vs_m = a[1];
  ASSERT_EQ(vs_m.points.size(), 6u);
  for (std::size_t i = 0; i < vs_m.points.size(); ++i) {
    const core::PanelPoint& point = vs_m.points[i];
    EXPECT_EQ(point.x, static_cast<double>(i + 1));
    if (point.primary.feasible()) {
      EXPECT_LE(point.primary.energy_overhead(),
                point.baseline.energy_overhead() * (1.0 + 1e-9));
    }
  }
}

TEST(SweepEngineInterleaved, FixedSegmentCountStaysPinnedAcrossRhoPanel) {
  // A `segments=M` scenario pins the count in panels exactly as it does
  // in solves — it must never degrade into a best-m-under-M search.
  ScenarioSpec pinned = hot_spec();
  pinned.max_segments = 0;
  pinned.segments = 3;
  const SweepEngine engine(SweepEngineOptions{.threads = 1});
  const sweep::PanelSeries panel =
      engine.run_axis(pinned, sweep::SweepParameter::kPerformanceBound);
  bool any_feasible = false;
  for (const auto& point : panel.points) {
    const core::InterleavedSolution& best = point.primary.interleaved();
    if (!best.feasible) continue;
    any_feasible = true;
    EXPECT_EQ(best.segments, 3u) << "x=" << point.x;
    // Each panel point agrees with the solve path at the same bound.
    ScenarioSpec at_x = pinned;
    at_x.sweep_parameter.reset();
    at_x.rho = point.x;
    expect_identical_interleaved(best, solve_scenario(at_x).interleaved());
  }
  EXPECT_TRUE(any_feasible);
}

TEST(SweepEngineInterleaved, OneEntryPointServesEveryBackend) {
  // run_scenario handles interleaved and pair scenarios alike now — the
  // historical twin entry points (and the twin panel-sweep classes behind
  // them) are gone. The panels only differ in their kind tag.
  const SweepEngine engine(SweepEngineOptions{.threads = 1});
  const auto segmented = engine.run_scenario(hot_spec());
  ASSERT_EQ(segmented.size(), 1u);
  EXPECT_EQ(segmented[0].kind, core::SolutionKind::kInterleaved);

  ScenarioSpec regular = scenario_by_name("fig02");
  regular.points = 5;
  const auto pair = engine.run_scenario(regular);
  ASSERT_EQ(pair.size(), 1u);
  EXPECT_EQ(pair[0].kind, core::SolutionKind::kPair);
}

TEST(CampaignRunnerInterleaved, CampaignMatchesStandaloneRuns) {
  // Acceptance criterion: interleaved panels through the flattened
  // campaign stream are bit-identical to standalone SweepEngine runs —
  // mixed with regular scenarios, parallel vs serial.
  ScenarioSpec panels = hot_spec();
  panels.all_panels = true;
  panels.sweep_parameter.reset();
  ScenarioSpec solve = hot_spec();
  solve.name = "hot_solve";
  solve.sweep_parameter.reset();
  ScenarioSpec regular = scenario_by_name("fig02");
  regular.points = 5;

  const CampaignRunner runner(CampaignRunnerOptions{.threads = 4});
  const auto results = runner.run({panels, regular, solve});
  ASSERT_EQ(results.size(), 3u);

  const SweepEngine serial(SweepEngineOptions{.threads = 1});
  const auto reference = serial.run_scenario(panels);
  ASSERT_EQ(results[0].panels.size(), reference.size());
  for (std::size_t p = 0; p < reference.size(); ++p) {
    expect_identical_panel(results[0].panels[p], reference[p]);
  }

  ASSERT_EQ(results[1].panels.size(), 1u);
  expect_identical_panel(results[1].panels[0],
                         serial.run_scenario(regular)[0]);

  EXPECT_TRUE(results[2].panels.empty());
  test::expect_identical_solution(results[2].solution,
                                  solve_scenario(solve));

  // And a serial campaign reproduces the parallel one bit for bit.
  const auto serial_results =
      CampaignRunner(CampaignRunnerOptions{.threads = 1})
          .run({panels, regular, solve});
  for (std::size_t p = 0; p < reference.size(); ++p) {
    expect_identical_panel(serial_results[0].panels[p],
                           results[0].panels[p]);
  }
  test::expect_identical_solution(serial_results[2].solution,
                                  results[2].solution);
}

TEST(CampaignRunnerInterleaved, ValidationHappensBeforeAnyTaskRuns) {
  // λf ≠ 0 cannot reach the segmented closed forms inside a pool worker.
  ScenarioSpec failstop = hot_spec();
  failstop.sweep_parameter.reset();  // a solve: construction is deferred
  failstop.overrides.push_back({"lambda_failstop", 1e-5});
  EXPECT_THROW(CampaignRunner().run({failstop}), std::invalid_argument);

  ScenarioSpec failstop_panel = hot_spec();
  failstop_panel.overrides.push_back({"lambda_failstop", 1e-5});
  EXPECT_THROW(CampaignRunner().run({failstop_panel}),
               std::invalid_argument);

  // Cross-field validation runs for campaign members too.
  ScenarioSpec bad_axis = scenario_by_name("fig02");
  bad_axis.sweep_parameter = sweep::SweepParameter::kSegments;
  EXPECT_THROW(CampaignRunner().run({bad_axis}), std::invalid_argument);
}

TEST(InterleavedScenario, RegistryScenariosRunEndToEnd) {
  // The registered extension scenarios are runnable as shipped (small
  // grids keep this fast).
  ScenarioSpec vs_rho = scenario_by_name("interleaved_rho");
  vs_rho.points = 5;
  const SweepEngine engine(SweepEngineOptions{.threads = 1});
  const auto rho_panels = engine.run_scenario(vs_rho);
  ASSERT_EQ(rho_panels.size(), 1u);
  EXPECT_EQ(rho_panels[0].points.size(), 5u);

  ScenarioSpec vs_m = scenario_by_name("interleaved_segments");
  const auto m_panels = engine.run_scenario(vs_m);
  ASSERT_EQ(m_panels.size(), 1u);
  EXPECT_EQ(m_panels[0].points.size(), 8u);
  // In its hot regime, segmentation strictly beats the paper pattern.
  EXPECT_GT(m_panels[0].max_energy_saving(), 0.05);
}

}  // namespace
}  // namespace rexspeed::engine
