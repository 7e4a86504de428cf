#pragma once

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "rexspeed/core/bicrit_solver.hpp"
#include "rexspeed/core/interleaved.hpp"
#include "rexspeed/core/model_params.hpp"
#include "rexspeed/core/solver_backend.hpp"
#include "rexspeed/platform/configuration.hpp"
#include "rexspeed/sweep/panel_sweep.hpp"

namespace rexspeed::test {

/// Model parameters of a named paper configuration (e.g. "Hera/XScale").
inline core::ModelParams params_for(const std::string& name) {
  return core::ModelParams::from_configuration(
      platform::configuration_by_name(name));
}

/// One panel of a named paper configuration over the default grid of
/// `points` (first-order unless `mode` says otherwise) — the panel the
/// figure tests sweep.
inline sweep::PanelSeries figure_panel(
    const std::string& configuration, sweep::SweepParameter axis,
    std::size_t points, const sweep::SweepOptions& options = {},
    core::EvalMode mode = core::EvalMode::kFirstOrder) {
  return sweep::run_panel_sweep(
      core::make_mode_backend(params_for(configuration), mode),
      configuration, axis, sweep::default_grid(axis, points), options);
}

/// `backend` after prepare() — the shape every point solve starts from.
inline std::unique_ptr<core::SolverBackend> prepared(
    std::unique_ptr<core::SolverBackend> backend) {
  backend->prepare();
  return backend;
}

/// Small synthetic parameter set with round numbers, handy for hand
/// calculations in unit tests.
inline core::ModelParams toy_params() {
  core::ModelParams params;
  params.lambda_silent = 1e-4;
  params.lambda_failstop = 0.0;
  params.checkpoint_s = 10.0;
  params.recovery_s = 10.0;
  params.verification_s = 2.0;
  params.kappa_mw = 1000.0;
  params.idle_power_mw = 100.0;
  params.io_power_mw = 50.0;
  params.speeds = {0.25, 0.5, 1.0};
  return params;
}

/// Field-by-field bit-identity check for a pair solution — THE comparison
/// behind every "parallel equals serial" guarantee. One definition so a
/// field added to PairSolution is added to the check exactly once.
inline void expect_identical_pair(const core::PairSolution& a,
                                  const core::PairSolution& b) {
  EXPECT_EQ(a.feasible, b.feasible);
  EXPECT_EQ(a.sigma1, b.sigma1);
  EXPECT_EQ(a.sigma2, b.sigma2);
  EXPECT_EQ(a.sigma1_index, b.sigma1_index);
  EXPECT_EQ(a.sigma2_index, b.sigma2_index);
  EXPECT_EQ(a.w_opt, b.w_opt);
  EXPECT_EQ(a.w_min, b.w_min);
  EXPECT_EQ(a.w_max, b.w_max);
  EXPECT_EQ(a.energy_overhead, b.energy_overhead);
  EXPECT_EQ(a.time_overhead, b.time_overhead);
}

/// Bit-identity check for an interleaved solution — the segmented
/// counterpart of expect_identical_pair.
inline void expect_identical_interleaved(const core::InterleavedSolution& a,
                                         const core::InterleavedSolution& b) {
  EXPECT_EQ(a.feasible, b.feasible);
  EXPECT_EQ(a.segments, b.segments);
  EXPECT_EQ(a.sigma1, b.sigma1);
  EXPECT_EQ(a.sigma2, b.sigma2);
  EXPECT_EQ(a.w_opt, b.w_opt);
  EXPECT_EQ(a.energy_overhead, b.energy_overhead);
  EXPECT_EQ(a.time_overhead, b.time_overhead);
}

/// Bit-identity check for a unified backend solution — dispatches on the
/// kind tag and reuses the typed checks, so a field added to either
/// payload is covered exactly once.
inline void expect_identical_solution(const core::Solution& a,
                                      const core::Solution& b) {
  ASSERT_EQ(a.kind(), b.kind());
  EXPECT_EQ(a.used_fallback, b.used_fallback);
  if (a.kind() == core::SolutionKind::kInterleaved) {
    expect_identical_interleaved(a.interleaved(), b.interleaved());
  } else {
    expect_identical_pair(a.pair(), b.pair());
  }
}

/// Bit-identity check for a whole generic backend panel.
inline void expect_identical_panel(const sweep::PanelSeries& a,
                                   const sweep::PanelSeries& b) {
  EXPECT_EQ(a.parameter, b.parameter);
  EXPECT_EQ(a.configuration, b.configuration);
  EXPECT_EQ(a.rho, b.rho);
  EXPECT_EQ(a.kind, b.kind);
  EXPECT_EQ(a.max_segments, b.max_segments);
  ASSERT_EQ(a.points.size(), b.points.size());
  for (std::size_t i = 0; i < a.points.size(); ++i) {
    EXPECT_EQ(a.points[i].x, b.points[i].x);
    expect_identical_solution(a.points[i].primary, b.points[i].primary);
    expect_identical_solution(a.points[i].baseline, b.points[i].baseline);
  }
}

}  // namespace rexspeed::test
