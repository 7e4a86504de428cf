#include "rexspeed/sweep/figure_sweeps.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <utility>
#include <vector>

#include "rexspeed/sweep/grid.hpp"
#include "test_util.hpp"

namespace rexspeed::sweep {
namespace {

TEST(DefaultGrid, RangesMatchPaperAxes) {
  const auto c = default_grid(SweepParameter::kCheckpointTime, 11);
  EXPECT_DOUBLE_EQ(c.front(), 0.0);
  EXPECT_DOUBLE_EQ(c.back(), 5000.0);
  const auto rho = default_grid(SweepParameter::kPerformanceBound, 11);
  EXPECT_DOUBLE_EQ(rho.front(), 1.0);
  EXPECT_DOUBLE_EQ(rho.back(), 3.5);
  const auto lam = default_grid(SweepParameter::kErrorRate, 11);
  EXPECT_NEAR(lam.front(), 1e-6, 1e-18);
  EXPECT_DOUBLE_EQ(lam.back(), 1e-2);
}

TEST(ApplyParameter, SetsTheRightField) {
  const auto base = test::params_for("Atlas/Crusoe");
  EXPECT_DOUBLE_EQ(
      apply_parameter(base, SweepParameter::kVerificationTime, 123.0)
          .verification_s,
      123.0);
  EXPECT_DOUBLE_EQ(
      apply_parameter(base, SweepParameter::kErrorRate, 1e-4).lambda_silent,
      1e-4);
  EXPECT_DOUBLE_EQ(
      apply_parameter(base, SweepParameter::kIdlePower, 77.0).idle_power_mw,
      77.0);
  EXPECT_DOUBLE_EQ(
      apply_parameter(base, SweepParameter::kIoPower, 88.0).io_power_mw,
      88.0);
  // ρ leaves the params untouched.
  const auto same =
      apply_parameter(base, SweepParameter::kPerformanceBound, 2.0);
  EXPECT_DOUBLE_EQ(same.checkpoint_s, base.checkpoint_s);
}

TEST(ApplyParameter, CheckpointSweepKeepsRecoveryEqual) {
  const auto base = test::params_for("Atlas/Crusoe");
  const auto p =
      apply_parameter(base, SweepParameter::kCheckpointTime, 2222.0);
  EXPECT_DOUBLE_EQ(p.checkpoint_s, 2222.0);
  EXPECT_DOUBLE_EQ(p.recovery_s, 2222.0);
}

TEST(FigureSweep, ProducesOnePointPerGridValue) {
  const PanelSeries series =
      test::figure_panel("Atlas/Crusoe", SweepParameter::kCheckpointTime, 9);
  EXPECT_EQ(series.points.size(), 9u);
  EXPECT_EQ(series.configuration, "Atlas/Crusoe");
  EXPECT_EQ(series.parameter, SweepParameter::kCheckpointTime);
  EXPECT_EQ(series.kind, core::SolutionKind::kPair);
  for (const auto& point : series.points) {
    const core::PairSolution& two = point.primary.pair();
    const core::PairSolution& one = point.baseline.pair();
    ASSERT_TRUE(two.feasible);
    ASSERT_TRUE(one.feasible);
    EXPECT_DOUBLE_EQ(one.sigma1, one.sigma2);
    EXPECT_LE(two.energy_overhead, one.energy_overhead * (1.0 + 1e-12));
  }
}

PanelSeries atlas_rho_panel(std::vector<double> grid,
                            const SweepOptions& options = {}) {
  return run_panel_sweep(
      core::make_mode_backend(test::params_for("Atlas/Crusoe"),
                              core::EvalMode::kFirstOrder),
      "Atlas/Crusoe", SweepParameter::kPerformanceBound, std::move(grid),
      options);
}

TEST(FigureSweep, RhoSweepUsesXAsBound) {
  const PanelSeries series = atlas_rho_panel({1.5, 2.5, 3.5});
  ASSERT_EQ(series.points.size(), 3u);
  for (const auto& point : series.points) {
    if (point.primary.feasible() && !point.primary.used_fallback) {
      EXPECT_LE(point.primary.time_overhead(), point.x * (1.0 + 1e-9));
    }
  }
}

TEST(FigureSweep, FallbackKicksInBeyondFeasibilityHorizon) {
  // At ρ = 1 nothing is feasible on Atlas/Crusoe; with the fallback the
  // point still carries the min-ρ policy (pinned near the fastest speeds).
  const PanelSeries with = atlas_rho_panel({1.0});
  ASSERT_TRUE(with.points[0].primary.feasible());
  EXPECT_TRUE(with.points[0].primary.used_fallback);
  EXPECT_GT(with.points[0].primary.time_overhead(), 1.0);

  SweepOptions no_fallback;
  no_fallback.min_rho_fallback = false;
  const PanelSeries without = atlas_rho_panel({1.0}, no_fallback);
  EXPECT_FALSE(without.points[0].primary.feasible());
  EXPECT_FALSE(without.points[0].primary.used_fallback);
}

TEST(FigureSweep, ParallelMatchesSerial) {
  ThreadPool pool(4);
  SweepOptions pooled;
  pooled.pool = &pool;
  test::expect_identical_panel(
      test::figure_panel("Atlas/Crusoe", SweepParameter::kErrorRate, 11),
      test::figure_panel("Atlas/Crusoe", SweepParameter::kErrorRate, 11,
                         pooled));
}

TEST(FigureSweep, EnergySavingIsZeroWhenInfeasible) {
  const core::PanelPoint point;
  EXPECT_DOUBLE_EQ(point.energy_saving(), 0.0);
}

TEST(FigureSweep, CompositeAxesAreTheSixFigurePanels) {
  const auto& axes = all_sweep_parameters();
  ASSERT_EQ(axes.size(), 6u);
  EXPECT_EQ(axes.front(), SweepParameter::kCheckpointTime);
  EXPECT_EQ(axes.back(), SweepParameter::kIoPower);
}

TEST(FigureSweep, RejectsEmptyGridAndNullBackend) {
  EXPECT_THROW(atlas_rho_panel({}), std::invalid_argument);
  EXPECT_THROW(run_panel_sweep(nullptr, "Atlas/Crusoe",
                               SweepParameter::kPerformanceBound, {3.0}),
               std::invalid_argument);
}

TEST(SweepParameterNames, AllDistinct) {
  EXPECT_STREQ(to_string(SweepParameter::kCheckpointTime), "C");
  EXPECT_STREQ(to_string(SweepParameter::kVerificationTime), "V");
  EXPECT_STREQ(to_string(SweepParameter::kErrorRate), "lambda");
  EXPECT_STREQ(to_string(SweepParameter::kPerformanceBound), "rho");
  EXPECT_STREQ(to_string(SweepParameter::kIdlePower), "Pidle");
  EXPECT_STREQ(to_string(SweepParameter::kIoPower), "Pio");
}

TEST(SweepParameterNames, ParseIsTheInverseOfToString) {
  const SweepParameter parameters[] = {
      SweepParameter::kCheckpointTime, SweepParameter::kVerificationTime,
      SweepParameter::kErrorRate,      SweepParameter::kPerformanceBound,
      SweepParameter::kIdlePower,      SweepParameter::kIoPower};
  for (const SweepParameter parameter : parameters) {
    const auto parsed = parse_sweep_parameter(to_string(parameter));
    ASSERT_TRUE(parsed.has_value()) << to_string(parameter);
    EXPECT_EQ(*parsed, parameter);
  }
}

TEST(SweepParameterNames, ParseRejectsUnknownNames) {
  EXPECT_FALSE(parse_sweep_parameter("").has_value());
  EXPECT_FALSE(parse_sweep_parameter("c").has_value());
  EXPECT_FALSE(parse_sweep_parameter("Lambda").has_value());
  EXPECT_FALSE(parse_sweep_parameter("rho ").has_value());
  EXPECT_FALSE(parse_sweep_parameter("unknown").has_value());
}

}  // namespace
}  // namespace rexspeed::sweep
