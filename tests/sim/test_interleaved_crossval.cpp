// Simulator-vs-model cross-validation for interleaved verification: the
// Monte-Carlo simulator executing ExecutionPolicy::segmented and the
// closed forms of core/interleaved.hpp must estimate the same overheads,
// for every segment count 1..8 — with segments = 1 doubling as a
// regression test of the paper's own (single-verification) model. All
// runs are seeded; tolerances come from the Welford standard error of the
// replication means (see support/crossval.hpp).

#include <gtest/gtest.h>

#include <string>

#include "support/crossval.hpp"
#include "rexspeed/core/exact_expectations.hpp"
#include "rexspeed/engine/scenario.hpp"
#include "rexspeed/sim/monte_carlo.hpp"
#include "test_util.hpp"

namespace rexspeed {
namespace {

using test::CrossValOptions;
using test::expect_simulator_matches_interleaved_model;

TEST(InterleavedCrossVal, ToyParamsSegments1Through8) {
  // The headline sweep: every segment count in [1, 8] on the toy model
  // with errors frequent enough for tight statistics.
  core::ModelParams p = test::toy_params();
  p.lambda_silent = 8e-4;
  p.verification_s = 1.0;
  CrossValOptions options;
  options.base_seed = 0xC805501;
  for (unsigned m = 1; m <= 8; ++m) {
    expect_simulator_matches_interleaved_model(p, 1200.0, m, 0.5, 1.0,
                                               options);
  }
}

TEST(InterleavedCrossVal, PaperConfigurationSegments1248) {
  // A real configuration at a boosted error rate (the paper's rates would
  // need billions of work units for tight statistics), asymmetric speeds.
  core::ModelParams p = test::params_for("Hera/XScale");
  p.lambda_silent *= 50.0;
  CrossValOptions options;
  options.base_seed = 0xC805502;
  for (const unsigned m : {1u, 2u, 4u, 8u}) {
    expect_simulator_matches_interleaved_model(p, 2500.0, m, 0.4, 0.8,
                                               options);
  }
}

TEST(InterleavedCrossVal, EqualSpeedsSegments1248) {
  // σ1 = σ2 exercises the retry tail at the same speed profile.
  core::ModelParams p = test::params_for("Atlas/Crusoe");
  p.lambda_silent *= 80.0;
  CrossValOptions options;
  options.base_seed = 0xC805503;
  for (const unsigned m : {1u, 2u, 4u, 8u}) {
    expect_simulator_matches_interleaved_model(p, 1500.0, m, 0.6, 0.6,
                                               options);
  }
}

TEST(InterleavedCrossVal, SegmentsOneIsThePaperModel) {
  // Regression anchor: at m = 1 the interleaved closed forms ARE the
  // paper's Prop. 2/3 expectations, so the m = 1 leg of the suite above
  // cross-validates the original model too. Assert the reduction exactly
  // (no Monte-Carlo needed here).
  const core::ModelParams p = test::params_for("Coastal/XScale");
  for (const double w : {800.0, 2764.0}) {
    EXPECT_NEAR(core::expected_time_interleaved(p, w, 1, 0.4, 1.0),
                core::expected_time(p, w, 0.4, 1.0),
                1e-9 * core::expected_time(p, w, 0.4, 1.0));
    EXPECT_NEAR(core::expected_energy_interleaved(p, w, 1, 0.4, 1.0),
                core::expected_energy(p, w, 0.4, 1.0),
                1e-9 * core::expected_energy(p, w, 0.4, 1.0));
  }
}

TEST(InterleavedCrossVal, SolverModePolicyCrossValidates) {
  // End to end: the policy the interleaved solver mode hands to the
  // simulator (make_policy → ExecutionPolicy::segmented) must behave as
  // the solver's own predictions say it will.
  engine::ScenarioSpec spec;
  spec.name = "crossval";
  spec.configuration = "Hera/XScale";
  spec.rho = 5.0;
  spec.max_segments = 6;
  spec.overrides.push_back({"lambda", 1e-3});
  spec.overrides.push_back({"V", 1.0});

  const core::InterleavedSolution sol =
      engine::solve_scenario(spec).interleaved();
  ASSERT_TRUE(sol.feasible);
  EXPECT_GT(sol.segments, 1u);  // the hot regime picks real segmentation

  const sim::ExecutionPolicy policy = engine::make_policy(spec);
  EXPECT_EQ(policy.verification_segments(), sol.segments);
  EXPECT_DOUBLE_EQ(policy.pattern_work(), sol.w_opt);
  EXPECT_DOUBLE_EQ(policy.speed_for_attempt(0), sol.sigma1);
  EXPECT_DOUBLE_EQ(policy.speed_for_attempt(1), sol.sigma2);

  CrossValOptions options;
  options.base_seed = 0xC805504;
  expect_simulator_matches_interleaved_model(
      spec.resolve_params(), sol.w_opt, sol.segments, sol.sigma1,
      sol.sigma2, options);
}

TEST(InterleavedCrossVal, SeededRunsAreReproducible) {
  // The suite is CI-stable because every replication's seed is a pure
  // function of (base_seed, index) and replications merge in index order:
  // identical options → identical stats, bit for bit, across runs and
  // across thread counts.
  core::ModelParams p = test::toy_params();
  p.lambda_silent = 8e-4;
  const sim::Simulator simulator(p);
  const sim::ExecutionPolicy policy =
      sim::ExecutionPolicy::segmented(1200.0, 4, 0.5, 1.0);
  sim::MonteCarloOptions options;
  options.replications = 50;
  options.total_work = 20.0 * 1200.0;
  options.base_seed = 0xC805505;
  options.threads = 1;
  const auto reference = sim::run_monte_carlo(simulator, policy, options);
  for (const unsigned threads : {1u, 2u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    options.threads = threads;
    for (int run = 0; run < 2; ++run) {
      const auto result = sim::run_monte_carlo(simulator, policy, options);
      EXPECT_EQ(result.time_overhead.mean(), reference.time_overhead.mean());
      EXPECT_EQ(result.energy_overhead.mean(),
                reference.energy_overhead.mean());
      EXPECT_EQ(result.time_overhead.standard_error(),
                reference.time_overhead.standard_error());
    }
  }
}

}  // namespace
}  // namespace rexspeed
