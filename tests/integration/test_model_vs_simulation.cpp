// Cross-validation of the analytical expectations (Props. 1–5) against the
// fault-injection simulator: the strongest evidence available that both
// the closed forms and the simulator implement the same model.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>

#include "rexspeed/core/attempt_stats.hpp"
#include "rexspeed/core/exact_expectations.hpp"
#include "rexspeed/sim/monte_carlo.hpp"
#include "support/crossval.hpp"
#include "test_util.hpp"

namespace rexspeed {
namespace {

using core::energy_overhead;
using core::time_overhead;

/// Widened 95% CI: with 8 configurations × 2 metrics under test, a plain
/// 95% interval would flake; 3.5× the half-width keeps the false-alarm
/// rate negligible while still detecting real model/simulator mismatches.
double slack(const stats::ConfidenceInterval& ci) {
  return 3.5 * ci.half_width() + 1e-12;
}

class ModelVsSimulation : public ::testing::TestWithParam<std::string> {};

TEST_P(ModelVsSimulation, SilentErrorOverheadsMatchClosedForms) {
  const core::ModelParams params = test::params_for(GetParam());
  // Use the ρ = 3 two-speed optimum as the simulated policy, but crank the
  // error rate up 50× so each replication sees many errors (the paper's
  // rates would need billions of work units for tight statistics).
  core::ModelParams hot = params;
  hot.lambda_silent *= 50.0;
  const core::BiCritSolver solver(params);
  const core::BiCritSolution sol = solver.solve(3.0);
  ASSERT_TRUE(sol.feasible);

  const double w = sol.best.w_opt;
  const double s1 = sol.best.sigma1;
  const double s2 = sol.best.sigma2;
  const sim::Simulator simulator(hot);
  const sim::ExecutionPolicy policy =
      sim::ExecutionPolicy::two_speed(w, s1, s2);
  sim::MonteCarloOptions options;
  options.replications = 300;
  options.total_work = 60.0 * w;  // 60 whole patterns per replication
  options.base_seed = 0xC0FFEE;
  const sim::MonteCarloResult mc =
      sim::run_monte_carlo(simulator, policy, options);

  EXPECT_NEAR(mc.time_overhead.mean(), time_overhead(hot, w, s1, s2),
              slack(mc.time_ci))
      << GetParam();
  EXPECT_NEAR(mc.energy_overhead.mean(), energy_overhead(hot, w, s1, s2),
              slack(mc.energy_ci))
      << GetParam();
}

INSTANTIATE_TEST_SUITE_P(
    AllEightConfigs, ModelVsSimulation,
    ::testing::Values("Hera/XScale", "Atlas/XScale", "Coastal/XScale",
                      "CoastalSSD/XScale", "Hera/Crusoe", "Atlas/Crusoe",
                      "Coastal/Crusoe", "CoastalSSD/Crusoe"),
    [](const auto& info) {
      std::string name = info.param;
      for (auto& ch : name) {
        if (ch == '/') ch = '_';
      }
      return name;
    });

TEST(ModelVsSimulation, AttemptCountersMatchClosedForms) {
  // The simulator's attempt counters must agree with the geometric-process
  // closed forms of core::attempt_stats.
  core::ModelParams p = test::toy_params();
  p.lambda_silent = 4e-4;
  p.lambda_failstop = 1e-4;
  const double w = 600.0;
  const double s1 = 0.5;
  const double s2 = 1.0;
  const sim::Simulator simulator(p);
  sim::MonteCarloOptions options;
  options.replications = 500;
  options.total_work = 100.0 * w;
  const sim::MonteCarloResult mc = sim::run_monte_carlo(
      simulator, sim::ExecutionPolicy::two_speed(w, s1, s2), options);
  const core::AttemptStats expected = core::attempt_stats(p, w, s1, s2);
  EXPECT_NEAR(mc.attempts_per_pattern.mean(), expected.expected_attempts,
              3.5 * mc.attempts_per_pattern.standard_error() + 1e-12);
  // Error split: detected silent vs fail-stop counts follow the rates.
  EXPECT_GT(mc.silent_errors.mean(), mc.failstop_errors.mean());
}

TEST(ModelVsSimulation, CombinedErrorsMatchRecursionForm) {
  // Parameters chosen to make the paper's spurious Prop-4 V/σ2 term large
  // (~1.4% of T): the simulation must side with the recursion-derived form
  // and reject the literal printed formula.
  core::ModelParams p = test::toy_params();
  p.lambda_silent = 5e-5;
  p.lambda_failstop = 5e-5;
  p.verification_s = 200.0;
  const double w = 800.0;
  const double s1 = 0.5;
  const double s2 = 1.0;

  const sim::Simulator simulator(p);
  const sim::ExecutionPolicy policy =
      sim::ExecutionPolicy::two_speed(w, s1, s2);
  sim::MonteCarloOptions options;
  options.replications = 1500;
  options.total_work = 100.0 * w;
  options.base_seed = 0xBADF00D;
  const sim::MonteCarloResult mc =
      sim::run_monte_carlo(simulator, policy, options);

  const double ours = time_overhead(p, w, s1, s2);
  const double paper =
      core::paper_forms::prop4_expected_time(p, w, s1, s2) / w;
  ASSERT_GT(paper, ours);  // the printed form overshoots

  EXPECT_NEAR(mc.time_overhead.mean(), ours, slack(mc.time_ci));
  // The printed Prop. 4 lies outside even the widened interval.
  EXPECT_GT(paper, mc.time_overhead.mean() + slack(mc.time_ci));
}

TEST(ModelVsSimulation, FailstopOnlyOverheadsMatch) {
  core::ModelParams p = test::toy_params();
  p.lambda_silent = 0.0;
  p.lambda_failstop = 2e-4;
  const double w = 600.0;
  const sim::Simulator simulator(p);
  const sim::ExecutionPolicy policy =
      sim::ExecutionPolicy::two_speed(w, 0.5, 1.0);
  sim::MonteCarloOptions options;
  options.replications = 800;
  options.total_work = 80.0 * w;
  const sim::MonteCarloResult mc =
      sim::run_monte_carlo(simulator, policy, options);
  EXPECT_NEAR(mc.time_overhead.mean(), time_overhead(p, w, 0.5, 1.0),
              slack(mc.time_ci));
  EXPECT_NEAR(mc.energy_overhead.mean(), energy_overhead(p, w, 0.5, 1.0),
              slack(mc.energy_ci));
}

TEST(ModelVsSimulation, SingleSpeedPatternMatchesProp1) {
  core::ModelParams p = test::params_for("Atlas/Crusoe");
  p.lambda_silent *= 100.0;
  const double w = 2000.0;
  const double sigma = 0.6;
  const sim::Simulator simulator(p);
  const sim::ExecutionPolicy policy =
      sim::ExecutionPolicy::single_speed(w, sigma);
  sim::MonteCarloOptions options;
  options.replications = 400;
  options.total_work = 50.0 * w;
  const sim::MonteCarloResult mc =
      sim::run_monte_carlo(simulator, policy, options);
  const double expected =
      core::expected_time_single_speed_silent(p, w, sigma) / w;
  EXPECT_NEAR(mc.time_overhead.mean(), expected, slack(mc.time_ci));
}

/// The paper assumes exponential error arrivals (§2.1). These two tests
/// run the exponential-optimal ρ = 3 policy of Hera/XScale at 100× its
/// silent-error rate under Weibull arrivals of the same MTBF.
struct WeibullCase {
  core::ModelParams params;
  core::PairSolution pair;
};

WeibullCase weibull_case() {
  core::ModelParams p = test::params_for("Hera/XScale");
  p.lambda_silent *= 100.0;
  const core::BiCritSolution sol = core::BiCritSolver(p).solve(3.0);
  EXPECT_TRUE(sol.feasible);
  return {p, sol.best};
}

sim::Simulator weibull_simulator(const core::ModelParams& p, double shape) {
  return sim::Simulator(
      p, sim::FaultInjector(
             sim::ArrivalSampler::weibull(shape, p.lambda_silent),
             sim::ArrivalSampler::exponential(0.0)));
}

test::CrossValOptions weibull_options(double shape) {
  test::CrossValOptions options;
  options.base_seed = 0x5EED + static_cast<std::uint64_t>(shape * 100.0);
  return options;
}

TEST(ModelVsSimulation, WeibullShapeOneMatchesExponentialClosedForms) {
  // Shape 1 is the exponential distribution: the closed forms must hold
  // within the shared stderr tolerance.
  const WeibullCase c = weibull_case();
  const core::PairSolution& pair = c.pair;
  test::expect_simulator_matches_model(
      weibull_simulator(c.params, 1.0),
      sim::ExecutionPolicy::from_solution(pair),
      time_overhead(c.params, pair.w_opt, pair.sigma1, pair.sigma2),
      energy_overhead(c.params, pair.w_opt, pair.sigma1, pair.sigma2),
      weibull_options(1.0));
}

TEST(ModelVsSimulation, ClusteredWeibullErrorsRaiseOverheadsMonotonically) {
  // Shape < 1 clusters errors at the same mean rate. Each smaller shape
  // must raise both overheads by more than the stderr tolerance.
  const WeibullCase c = weibull_case();
  double prev_time = 0.0;
  double prev_time_se = 0.0;
  double prev_energy = 0.0;
  double prev_energy_se = 0.0;
  for (const double shape : {1.0, 0.9, 0.7, 0.5}) {
    SCOPED_TRACE("shape=" + std::to_string(shape));
    const test::CrossValOptions options = weibull_options(shape);
    sim::MonteCarloOptions mc_options;
    mc_options.replications = options.replications;
    mc_options.total_work = options.patterns_per_replication * c.pair.w_opt;
    mc_options.base_seed = options.base_seed;
    const sim::MonteCarloResult mc = sim::run_monte_carlo(
        weibull_simulator(c.params, shape),
        sim::ExecutionPolicy::from_solution(c.pair), mc_options);
    const double time = mc.time_overhead.mean();
    const double time_se = mc.time_overhead.standard_error();
    const double energy = mc.energy_overhead.mean();
    const double energy_se = mc.energy_overhead.standard_error();
    if (shape < 1.0) {
      EXPECT_GT(time - prev_time,
                options.sigmas * std::hypot(time_se, prev_time_se));
      EXPECT_GT(energy - prev_energy,
                options.sigmas * std::hypot(energy_se, prev_energy_se));
    }
    prev_time = time;
    prev_time_se = time_se;
    prev_energy = energy;
    prev_energy_se = energy_se;
  }
}

}  // namespace
}  // namespace rexspeed
