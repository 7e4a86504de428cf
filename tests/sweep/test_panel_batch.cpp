// Whole-panel scheduling: batched ρ grids (one solve_rho_batch call
// against the SoA caches) must be BIT-identical to a loop of the
// backend's own solve_panel_point on every backend that advertises
// batched_rho, and
// warm-start chains along exact model-axis grids must agree with cold
// per-point rebinds within numeric tolerance (the seeds steer only the
// bracketing, never the optimum). Both drivers — run_panel_sweep and the
// campaign stream — route whole panels through the same PanelSweep, so
// these checks cover the campaign path too.

#include "rexspeed/sweep/panel_sweep.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>

#include "rexspeed/engine/backend_registry.hpp"
#include "rexspeed/engine/campaign_runner.hpp"
#include "rexspeed/engine/sweep_engine.hpp"
#include "test_util.hpp"

namespace rexspeed::sweep {
namespace {

using test::expect_identical_panel;

core::ModelParams interleavable_params() {
  core::ModelParams params = test::params_for("Hera/XScale");
  params.lambda_silent = 1e-3;
  params.verification_s = 1.0;
  return params;
}

/// A ρ panel through PanelSweep: whole-grid on a backend that advertises
/// batched_rho, point by point otherwise.
PanelSeries run_rho_panel(std::unique_ptr<core::SolverBackend> backend,
                          std::size_t points = 21) {
  return run_panel_sweep(
      std::move(backend), "test", SweepParameter::kPerformanceBound,
      default_grid(SweepParameter::kPerformanceBound, points), {});
}

/// The reference a batched panel must match: the backend's own per-point
/// solve, looped over the same grid with the same default options.
PanelSeries pointwise_rho_panel(std::unique_ptr<core::SolverBackend> backend,
                                std::size_t points = 21,
                                const std::string& configuration = "test") {
  const SweepOptions options;
  backend->prepare();
  PanelSeries series;
  series.parameter = SweepParameter::kPerformanceBound;
  series.configuration = configuration;
  series.rho = options.rho;
  series.kind = backend->capabilities().kind;
  series.max_segments = backend->capabilities().max_segments;
  for (const double rho :
       default_grid(SweepParameter::kPerformanceBound, points)) {
    series.points.push_back(backend->solve_panel_point(
        SweepParameter::kPerformanceBound, rho, options.rho,
        options.min_rho_fallback));
  }
  return series;
}

TEST(BatchedRhoPanel, FirstOrderBatchedEqualsPointwiseBitForBit) {
  const core::ModelParams params = test::params_for("Hera/XScale");
  const PanelSeries batched =
      run_rho_panel(std::make_unique<core::ClosedFormBackend>(
          params, core::EvalMode::kFirstOrder));
  const PanelSeries pointwise =
      pointwise_rho_panel(std::make_unique<core::ClosedFormBackend>(
          params, core::EvalMode::kFirstOrder));
  expect_identical_panel(batched, pointwise);
}

TEST(BatchedRhoPanel, ExactOptBatchedEqualsPointwiseBitForBit) {
  const core::ModelParams params = test::params_for("Hera/XScale");
  const PanelSeries batched =
      run_rho_panel(std::make_unique<core::ExactOptBackend>(params), 11);
  const PanelSeries pointwise =
      pointwise_rho_panel(std::make_unique<core::ExactOptBackend>(params), 11);
  expect_identical_panel(batched, pointwise);
}

TEST(BatchedRhoPanel, InterleavedBatchedEqualsPointwiseBitForBit) {
  const core::ModelParams params = interleavable_params();
  const PanelSeries batched = run_rho_panel(
      std::make_unique<core::InterleavedBackend>(params, 6), 11);
  const PanelSeries pointwise = pointwise_rho_panel(
      std::make_unique<core::InterleavedBackend>(params, 6), 11);
  expect_identical_panel(batched, pointwise);
}

TEST(BatchedRhoPanel, BatchesExactlyWhereAdvertised) {
  const core::ModelParams params = test::params_for("Hera/XScale");
  const std::vector<double> grid =
      default_grid(SweepParameter::kPerformanceBound, 5);
  // A batching backend: scheduled as one whole-panel unit.
  PanelSweep batched(std::make_unique<core::ClosedFormBackend>(
                         params, core::EvalMode::kFirstOrder),
                     "test", SweepParameter::kPerformanceBound, grid, {});
  EXPECT_EQ(batched.granularity(), PanelSweep::Granularity::kWholePanel);
  // exact-eval solves every bound numerically — no batched kernel, so
  // the panel stays pointwise.
  PanelSweep pointwise(std::make_unique<core::ClosedFormBackend>(
                           params, core::EvalMode::kExactEvaluation),
                       "test", SweepParameter::kPerformanceBound, grid, {});
  EXPECT_EQ(pointwise.granularity(), PanelSweep::Granularity::kPerPoint);
}

TEST(BatchedRhoPanel, MeasureCostLeavesResultsUntouched) {
  // A per-point panel's probe solves its point 0 for real; the remaining
  // stream plus the probe must reproduce the unprobed panel bit for bit.
  const core::ModelParams params = test::params_for("Hera/XScale");
  const std::vector<double> grid =
      default_grid(SweepParameter::kPerformanceBound, 7);
  PanelSweep probed(std::make_unique<core::ClosedFormBackend>(
                        params, core::EvalMode::kExactEvaluation),
                    "test", SweepParameter::kPerformanceBound, grid, {});
  EXPECT_EQ(probed.first_pending(), 0u);
  EXPECT_GE(probed.measure_cost(), 0.0);
  EXPECT_EQ(probed.first_pending(), 1u);
  for (std::size_t i = probed.first_pending(); i < probed.point_count();
       ++i) {
    probed.solve_point(i);
  }
  const PanelSeries reference =
      run_rho_panel(std::make_unique<core::ClosedFormBackend>(
                        params, core::EvalMode::kExactEvaluation),
                    7);
  expect_identical_panel(probed.take(), reference);

  // A whole-panel probe is transient: first_pending stays 0 and the later
  // solve_all() recomputes everything.
  PanelSweep whole(std::make_unique<core::ClosedFormBackend>(
                       params, core::EvalMode::kFirstOrder),
                   "test", SweepParameter::kPerformanceBound, grid, {});
  EXPECT_GE(whole.measure_cost(), 0.0);
  EXPECT_EQ(whole.first_pending(), 0u);
  whole.solve_all();
  const PanelSeries batched =
      run_rho_panel(std::make_unique<core::ClosedFormBackend>(
                        params, core::EvalMode::kFirstOrder),
                    7);
  expect_identical_panel(whole.take(), batched);
}

/// Tolerance agreement for warm-vs-cold chains: identical discrete
/// choices (feasibility, fallback, speed indices) and numerically equal
/// continuous outputs — the seeds may change the bracketing walk, so the
/// last few ulps of the 1e-10-tolerance optimizer are not guaranteed.
void expect_chain_agrees(const PanelSeries& warm, const PanelSeries& cold) {
  ASSERT_EQ(warm.points.size(), cold.points.size());
  for (std::size_t i = 0; i < warm.points.size(); ++i) {
    const core::PanelPoint& a = warm.points[i];
    const core::PanelPoint& b = cold.points[i];
    EXPECT_EQ(a.x, b.x);
    const core::Solution* sides[2][2] = {{&a.primary, &b.primary},
                                         {&a.baseline, &b.baseline}};
    for (const auto& side : sides) {
      const core::Solution& w = *side[0];
      const core::Solution& c = *side[1];
      ASSERT_EQ(w.feasible(), c.feasible()) << "x=" << a.x;
      EXPECT_EQ(w.used_fallback, c.used_fallback) << "x=" << a.x;
      if (!w.feasible()) continue;
      EXPECT_EQ(w.sigma1(), c.sigma1()) << "x=" << a.x;
      EXPECT_EQ(w.sigma2(), c.sigma2()) << "x=" << a.x;
      EXPECT_NEAR(w.w_opt(), c.w_opt(),
                  1e-6 * std::max(1.0, std::abs(c.w_opt())))
          << "x=" << a.x;
      EXPECT_NEAR(w.energy_overhead(), c.energy_overhead(),
                  1e-8 * std::max(1.0, std::abs(c.energy_overhead())))
          << "x=" << a.x;
    }
  }
}

TEST(WarmStartChain, ExactModelAxesAgreeWithColdRebinds) {
  const core::ModelParams params = test::params_for("Hera/XScale");
  for (const SweepParameter axis :
       {SweepParameter::kCheckpointTime, SweepParameter::kVerificationTime,
        SweepParameter::kErrorRate}) {
    const std::vector<double> grid = default_grid(axis, 7);
    SweepOptions warm_options;  // warm_start_chain defaults on
    const PanelSeries warm = run_panel_sweep(
        std::make_unique<core::ExactOptBackend>(params), "test", axis, grid,
        warm_options);
    SweepOptions cold_options;
    cold_options.warm_start_chain = false;
    const PanelSeries cold = run_panel_sweep(
        std::make_unique<core::ExactOptBackend>(params), "test", axis, grid,
        cold_options);
    expect_chain_agrees(warm, cold);
  }
}

TEST(WarmStartChain, ChainGranularityFollowsTheOption) {
  const core::ModelParams params = test::params_for("Hera/XScale");
  const std::vector<double> grid =
      default_grid(SweepParameter::kCheckpointTime, 5);
  SweepOptions options;
  PanelSweep chained(std::make_unique<core::ExactOptBackend>(params), "test",
                     SweepParameter::kCheckpointTime, grid, options);
  EXPECT_EQ(chained.granularity(), PanelSweep::Granularity::kWholePanel);
  options.warm_start_chain = false;
  PanelSweep cold(std::make_unique<core::ExactOptBackend>(params), "test",
                  SweepParameter::kCheckpointTime, grid, options);
  EXPECT_EQ(cold.granularity(), PanelSweep::Granularity::kPerPoint);
  // First-order model axes have no chain to warm: per-point either way.
  PanelSweep closed(std::make_unique<core::ClosedFormBackend>(
                        params, core::EvalMode::kFirstOrder),
                    "test", SweepParameter::kCheckpointTime, grid, {});
  EXPECT_EQ(closed.granularity(), PanelSweep::Granularity::kPerPoint);
}

TEST(WholePanelScheduling, CampaignMatchesStandaloneThroughBatchedPanels) {
  // The campaign stream schedules a batched ρ panel as ONE task; the
  // result must still be bit-identical to the standalone engine run of
  // the same scenario, pointwise or batched, serial or pooled.
  engine::ScenarioSpec spec;
  spec.name = "batched_rho";
  spec.configuration = "Hera/XScale";
  spec.sweep_parameter = SweepParameter::kPerformanceBound;
  spec.points = 9;
  const engine::SweepEngine engine({.threads = 1});
  const FigureSeries standalone = engine.run(spec);
  for (const unsigned threads : {1u, 4u}) {
    const engine::CampaignRunner runner({.threads = threads});
    const engine::ScenarioResult result = runner.run_one(spec);
    ASSERT_EQ(result.panels.size(), 1u);
    test::expect_identical_series(to_figure_series(result.panels.front()),
                                  standalone);
  }
  // And the backend's own per-point loop agrees bit for bit — the batched
  // kernels are an implementation detail of the panel.
  test::expect_identical_series(
      to_figure_series(pointwise_rho_panel(engine::make_backend(spec),
                                           spec.points, spec.configuration)),
      standalone);
}

}  // namespace
}  // namespace rexspeed::sweep
