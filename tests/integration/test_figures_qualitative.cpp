// Qualitative reproduction of the claims the paper makes about Figures
// 2–7 (Atlas/Crusoe) and the §4.3 discussion: which speed pairs win where,
// how Wopt moves with each parameter, and the headline "up to 35% energy
// savings". Absolute thresholds are anchored on the model, not on noise —
// these assertions fail loudly if the solver's behaviour changes shape.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "rexspeed/sweep/grid.hpp"
#include "test_util.hpp"

namespace rexspeed {
namespace {

using sweep::PanelSeries;
using sweep::SweepParameter;

/// One Atlas/Crusoe panel (Figures 2–7) on a 101-point grid.
PanelSeries dense(SweepParameter axis) {
  return test::figure_panel("Atlas/Crusoe", axis, 101);
}

TEST(Figure2, CheckpointSweepSpeedPairEvolution) {
  // §4.3.1: "the optimal speed pair starts at (0.45, 0.45) when C is small
  // and reaches (0.45, 0.8) when C is increased to 5000 seconds."
  const PanelSeries series = dense(SweepParameter::kCheckpointTime);
  const auto& first = series.points.front().primary.pair();
  EXPECT_DOUBLE_EQ(first.sigma1, 0.45);
  EXPECT_DOUBLE_EQ(first.sigma2, 0.45);
  const auto& last = series.points.back().primary.pair();
  EXPECT_DOUBLE_EQ(last.sigma1, 0.45);
  EXPECT_DOUBLE_EQ(last.sigma2, 0.8);
}

TEST(Figure2, UpToThirtyFivePercentSavings) {
  // §4.3.1: "using two speeds achieves up to 35% improvement in the
  // energy overhead" (C sweep peaks just above 32%, the V sweep at 35%).
  const PanelSeries series = dense(SweepParameter::kCheckpointTime);
  EXPECT_GE(series.max_energy_saving(), 0.30);
  EXPECT_LE(series.max_energy_saving(), 0.40);
}

TEST(Figure2, PatternSizeGrowsWithCheckpointCostAtFixedSpeeds) {
  const PanelSeries series = dense(SweepParameter::kCheckpointTime);
  for (std::size_t i = 1; i < series.points.size(); ++i) {
    const auto& prev = series.points[i - 1].primary.pair();
    const auto& cur = series.points[i].primary.pair();
    if (prev.sigma1 == cur.sigma1 && prev.sigma2 == cur.sigma2) {
      EXPECT_GE(cur.w_opt, prev.w_opt - 1e-9)
          << "x=" << series.points[i].x;
    }
  }
}

TEST(Figure3, VerificationSweepStabilizesAtMixedPair) {
  // §4.3.1: "the optimal speed pair stabilizes at (0.6, 0.45) when V is
  // increased to 5000 seconds" — with ~35% peak savings on the way.
  const PanelSeries series = dense(SweepParameter::kVerificationTime);
  const auto& last = series.points.back().primary.pair();
  EXPECT_DOUBLE_EQ(last.sigma1, 0.6);
  EXPECT_DOUBLE_EQ(last.sigma2, 0.45);
  EXPECT_GE(series.max_energy_saving(), 0.33);
  EXPECT_LE(series.max_energy_saving(), 0.40);
}

TEST(Figure4, ErrorRateSweepShrinksPatternsAndRaisesSpeeds) {
  // §4.3.2: Wopt decreases with λ while the execution speeds increase
  // (σ2 first, then σ1, until both reach the maximum).
  const PanelSeries series = dense(SweepParameter::kErrorRate);
  const auto& low = series.points.front().primary.pair();
  EXPECT_DOUBLE_EQ(low.sigma1, 0.45);
  EXPECT_DOUBLE_EQ(low.sigma2, 0.45);

  double prev_w = std::numeric_limits<double>::infinity();
  double prev_s1 = 0.0;
  double prev_s2 = 0.0;
  bool prev_fallback = false;
  bool prev_inactive = true;
  for (const auto& point : series.points) {
    const auto& sol = point.primary.pair();
    ASSERT_TRUE(sol.feasible);
    // Wopt decreases while the speed pair is unchanged *and* the bound is
    // inactive (Wopt = We). Pair switches reset it upward, and when the
    // bound binds from below (We < W1) Wopt = W1 grows with λ — both are
    // the bumps visible in the paper's Figure 4 middle panel.
    const bool bound_inactive =
        std::abs(sol.w_opt - sol.w_energy) <= 1e-6 * sol.w_opt;
    if (bound_inactive && prev_inactive && sol.sigma1 == prev_s1 &&
        sol.sigma2 == prev_s2 &&
        point.primary.used_fallback == prev_fallback) {
      EXPECT_LE(sol.w_opt, prev_w * (1.0 + 1e-9)) << "lambda=" << point.x;
    }
    EXPECT_GE(sol.sigma1, prev_s1 - 1e-12);  // σ1 never falls back
    prev_w = sol.w_opt;
    prev_s1 = sol.sigma1;
    prev_s2 = sol.sigma2;
    prev_fallback = point.primary.used_fallback;
    prev_inactive = bound_inactive;
  }
  // Beyond the feasibility horizon the fallback pins the fastest speed.
  const auto& high = series.points.back();
  EXPECT_TRUE(high.primary.used_fallback);
  EXPECT_DOUBLE_EQ(high.primary.pair().sigma1, 1.0);
}

TEST(Figure5, TighterBoundForcesFasterSpeedsAndMoreEnergy) {
  // §4.3.2: as ρ is reduced the speeds increase; with more slack the
  // energy overhead decreases monotonically.
  const PanelSeries series = dense(SweepParameter::kPerformanceBound);
  double prev_energy = std::numeric_limits<double>::infinity();
  double prev_s1 = 2.0;
  for (const auto& point : series.points) {
    if (point.primary.used_fallback) continue;  // ρ below every ρ_{i,j}
    const auto& sol = point.primary.pair();
    EXPECT_LE(sol.energy_overhead, prev_energy * (1.0 + 1e-9))
        << "rho=" << point.x;
    EXPECT_LE(sol.sigma1, prev_s1 + 1e-12) << "rho=" << point.x;
    prev_energy = sol.energy_overhead;
    prev_s1 = sol.sigma1;
  }
  // Generous bounds settle on the cheapest speed.
  EXPECT_DOUBLE_EQ(series.points.back().primary.pair().sigma1, 0.45);
  EXPECT_DOUBLE_EQ(series.points.back().primary.pair().sigma2, 0.45);
}

TEST(Figure6, IdlePowerRaisesSpeedsSigma1First) {
  // §4.3.3: speeds increase with Pidle (σ1 first, then σ2), and σ2 almost
  // always equals σ1 so one speed suffices.
  const PanelSeries series = dense(SweepParameter::kIdlePower);
  const auto& first = series.points.front().primary.pair();
  const auto& last = series.points.back().primary.pair();
  EXPECT_DOUBLE_EQ(first.sigma1, 0.45);
  EXPECT_GT(last.sigma1, first.sigma1);
  EXPECT_DOUBLE_EQ(last.sigma1, last.sigma2);
  // Energy overhead strictly grows with static power.
  EXPECT_GT(last.energy_overhead,
            series.points.front().primary.pair().energy_overhead);
  // Two-speed gains are marginal in this sweep (σ2 ≈ σ1 throughout).
  EXPECT_LT(series.max_energy_saving(), 0.05);
}

TEST(Figure7, IoPowerLeavesSpeedsUnchanged) {
  // §4.3.3: the execution speeds are not affected by Pio; the pattern size
  // and the energy overhead grow with it.
  const PanelSeries series = dense(SweepParameter::kIoPower);
  double prev_w = 0.0;
  double prev_energy = 0.0;
  for (const auto& point : series.points) {
    const auto& sol = point.primary.pair();
    ASSERT_TRUE(sol.feasible);
    EXPECT_DOUBLE_EQ(sol.sigma1, 0.45);
    EXPECT_DOUBLE_EQ(sol.sigma2, 0.45);
    EXPECT_GE(sol.w_opt, prev_w);
    EXPECT_GE(sol.energy_overhead, prev_energy);
    prev_w = sol.w_opt;
    prev_energy = sol.energy_overhead;
  }
}

TEST(Figures8to14, EveryConfigurationSweepsCleanly) {
  // The remaining figures repeat the six sweeps on the other seven
  // configurations; check global sanity everywhere (`rexspeed sweep
  // --scenario=figNN` prints the complete panels).
  for (const auto& config : platform::all_configurations()) {
    for (const SweepParameter axis : sweep::all_sweep_parameters()) {
      const PanelSeries panel = test::figure_panel(config.name(), axis, 11);
      for (const auto& point : panel.points) {
        if (!point.primary.pair().feasible) continue;
        EXPECT_GT(point.primary.pair().w_opt, 0.0) << config.name();
        EXPECT_GT(point.primary.pair().energy_overhead, 0.0) << config.name();
        if (point.baseline.pair().feasible && !point.baseline.used_fallback &&
            !point.primary.used_fallback) {
          EXPECT_LE(point.primary.pair().energy_overhead,
                    point.baseline.pair().energy_overhead * (1.0 + 1e-12))
              << config.name();
        }
      }
    }
  }
}

TEST(Figures8to14, LargestSavingPerSweepAcrossAllConfigurations) {
  // §4.3.5 claims "up to 35%" savings. The largest two-speed saving the
  // model reaches on each sweep over all eight configurations (101-point
  // panels, points where either policy falls back excluded) is pinned
  // here as the code computes it. C, V and λ peak near the paper's 35 %;
  // the ρ sweep peaks higher, at 41.8 % on Hera/Crusoe at ρ = 1.775: the
  // single-speed baseline needs σ = 0.8 there (it drops to 0.6 from
  // ρ = 1.8 on), while the two-speed policy already runs at σ1 = 0.6 and
  // re-executes at 0.8.
  struct Peak {
    SweepParameter axis;
    double percent;
  };
  const Peak peaks[] = {{SweepParameter::kCheckpointTime, 34.8},
                        {SweepParameter::kVerificationTime, 35.6},
                        {SweepParameter::kErrorRate, 34.7},
                        {SweepParameter::kPerformanceBound, 41.8}};
  for (const Peak& peak : peaks) {
    SCOPED_TRACE(sweep::to_string(peak.axis));
    double best = 0.0;
    std::string where;
    PanelSeries best_panel;
    std::size_t best_index = 0;
    for (const auto& config : platform::all_configurations()) {
      PanelSeries panel = test::figure_panel(config.name(), peak.axis, 101);
      bool improved = false;
      for (std::size_t i = 0; i < panel.points.size(); ++i) {
        const core::PanelPoint& point = panel.points[i];
        if (point.primary.used_fallback || point.baseline.used_fallback) {
          continue;
        }
        if (point.energy_saving() > best) {
          best = point.energy_saving();
          where = config.name();
          best_index = i;
          improved = true;
        }
      }
      if (improved) best_panel = std::move(panel);
    }
    EXPECT_NEAR(100.0 * best, peak.percent, 0.5) << where;
    if (peak.axis == SweepParameter::kPerformanceBound) {
      EXPECT_EQ(where, "Hera/Crusoe");
      const auto& points = best_panel.points;
      ASSERT_LT(best_index + 1, points.size());
      const core::PanelPoint& at = points[best_index];
      EXPECT_NEAR(at.x, 1.775, 1e-9);
      EXPECT_DOUBLE_EQ(at.primary.pair().sigma1, 0.6);
      EXPECT_DOUBLE_EQ(at.primary.pair().sigma2, 0.8);
      EXPECT_DOUBLE_EQ(at.baseline.pair().sigma1, 0.8);
      EXPECT_DOUBLE_EQ(points[best_index + 1].baseline.pair().sigma1, 0.6);
    }
  }
}

TEST(Figures8to14, CrusoeOnOtherPlatformsKeepsSlowPairLonger) {
  // §4.3.4: "the optimal speed pair (0.45, 0.45) remains unchanged as the
  // checkpointing cost increases up to 5000 s when the Crusoe processor is
  // coupled with platforms other than Atlas" (their error rates are
  // smaller).
  for (const char* name : {"Hera/Crusoe", "Coastal/Crusoe",
                           "CoastalSSD/Crusoe"}) {
    const PanelSeries series =
        test::figure_panel(name, SweepParameter::kCheckpointTime, 26);
    for (const auto& point : series.points) {
      EXPECT_DOUBLE_EQ(point.primary.pair().sigma1, 0.45) << name;
      EXPECT_DOUBLE_EQ(point.primary.pair().sigma2, 0.45) << name;
    }
  }
}

}  // namespace
}  // namespace rexspeed
