// The cached exact-optimization backend: agreement with the uncached
// optimize_exact_pair path (per pair and through the full solve), the
// warm-started cache build, the exact-model min-ρ fallback, bit-identity
// of parallel vs serial cache builds, and the paper-regime agreement of
// exact-opt with the first-order closed forms at small λ.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "rexspeed/core/bicrit_solver.hpp"
#include "rexspeed/core/exact_expectations.hpp"
#include "rexspeed/core/numeric_optimizer.hpp"
#include "rexspeed/core/solver_backend.hpp"
#include "test_util.hpp"

namespace rexspeed::core {
namespace {

using test::params_for;
using test::toy_params;

TEST(ExactOptBackend, MatchesUncachedPerPairAcrossBounds) {
  // The cache must change the cost, not the answer: the boundary-snap
  // solve on cached curve optima agrees with the from-scratch
  // optimize_exact_pair at every bound, tight and loose.
  ModelParams p = params_for("Hera/XScale");
  p.lambda_silent *= 50.0;  // push the exact model away from first order
  ExactOptBackend solver(p);
  solver.prepare();
  const std::size_t k = p.speeds.size();
  for (const double rho : {1.2, 1.5, 2.0, 3.0, 8.0}) {
    for (std::size_t i = 0; i < k; ++i) {
      for (std::size_t j = 0; j < k; ++j) {
        SCOPED_TRACE(testing::Message()
                     << "rho=" << rho << " pair=(" << i << "," << j << ")");
        const PairSolution cached = solver.solve_pair(rho, i, j);
        const ExactPairResult exact =
            optimize_exact_pair(p, rho, p.speeds[i], p.speeds[j]);
        ASSERT_EQ(cached.feasible, exact.feasible);
        if (!cached.feasible) continue;
        EXPECT_NEAR(cached.energy_overhead, exact.energy_overhead,
                    1e-6 * exact.energy_overhead);
        EXPECT_NEAR(cached.time_overhead, exact.time_overhead,
                    1e-5 * exact.time_overhead);
        // The reported overheads are the exact curves at the reported W.
        EXPECT_NEAR(cached.energy_overhead,
                    energy_overhead(p, cached.w_opt, cached.sigma1,
                                    cached.sigma2),
                    1e-12 * cached.energy_overhead);
        EXPECT_LE(cached.time_overhead, rho * (1.0 + 1e-9));
      }
    }
  }
}

TEST(ExactOptBackend, SolveMatchesBiCritExactOptimize) {
  // Full solve vs BiCritSolver's per-bound numeric optimization: same
  // winning pair, same overheads, both speed policies.
  const ModelParams p = params_for("Atlas/Crusoe");
  ExactOptBackend cached(p);
  cached.prepare();
  const BiCritSolver uncached(p);
  for (const double rho : {1.3, 2.0, 3.0}) {
    for (const SpeedPolicy policy :
         {SpeedPolicy::kTwoSpeed, SpeedPolicy::kSingleSpeed}) {
      SCOPED_TRACE(testing::Message()
                   << "rho=" << rho << " single="
                   << (policy == SpeedPolicy::kSingleSpeed));
      const BiCritSolution a = cached.solve_report(rho, policy);
      const BiCritSolution b =
          uncached.solve(rho, policy, EvalMode::kExactOptimize);
      ASSERT_EQ(a.feasible, b.feasible);
      if (!a.feasible) continue;
      EXPECT_EQ(a.best.sigma1_index, b.best.sigma1_index);
      EXPECT_EQ(a.best.sigma2_index, b.best.sigma2_index);
      EXPECT_NEAR(a.best.energy_overhead, b.best.energy_overhead,
                  1e-6 * b.best.energy_overhead);
      EXPECT_NEAR(a.best.w_opt, b.best.w_opt, 1e-4 * b.best.w_opt);
    }
  }
}

TEST(ExactOptBackend, SupportsFailstopOutsideFirstOrderWindow) {
  // λf > 0 with a large speed ratio puts pairs outside the §5.2 window
  // where the closed forms are meaningless — the regime kExactOptimize
  // exists for. The cached backend must handle it identically.
  ModelParams p = toy_params();
  p.lambda_failstop = 5e-4;
  p.lambda_silent = 1e-4;
  ExactOptBackend solver(p);
  solver.prepare();
  bool saw_invalid_pair = false;
  for (const ExactExpansion& e : solver.expansions()) {
    saw_invalid_pair |= !e.first_order_valid;
    EXPECT_GT(e.rho_min, 0.0);
    EXPECT_GT(e.w_time, 0.0);
    EXPECT_GT(e.w_energy, 0.0);
  }
  EXPECT_TRUE(saw_invalid_pair)
      << "expected at least one pair outside the first-order window";
  const BiCritSolution a =
      solver.solve_report(3.0, SpeedPolicy::kTwoSpeed);
  const BiCritSolution b =
      BiCritSolver(p).solve(3.0, SpeedPolicy::kTwoSpeed,
                            EvalMode::kExactOptimize);
  ASSERT_EQ(a.feasible, b.feasible);
  ASSERT_TRUE(a.feasible);
  EXPECT_EQ(a.best.sigma1_index, b.best.sigma1_index);
  EXPECT_EQ(a.best.sigma2_index, b.best.sigma2_index);
  EXPECT_NEAR(a.best.energy_overhead, b.best.energy_overhead,
              1e-6 * b.best.energy_overhead);
}

TEST(ExactOptBackend, AgreesWithFirstOrderAtSmallLambda) {
  // §5.2: inside the validity window at small λ the first-order optimum
  // and the exact optimum coincide to O(λW) — the paper-regime agreement
  // check for the cached backend.
  ModelParams p = params_for("Hera/XScale");
  p.lambda_silent = 1e-7;
  ExactOptBackend exact(p);
  exact.prepare();
  const BiCritSolver first_order(p);
  for (const double rho : {1.5, 2.0, 3.0}) {
    SCOPED_TRACE(rho);
    const PairSolution a =
        exact.solve_report(rho, SpeedPolicy::kTwoSpeed).best;
    const PairSolution b =
        first_order.solve(rho, SpeedPolicy::kTwoSpeed,
                          EvalMode::kFirstOrder).best;
    ASSERT_TRUE(a.feasible);
    ASSERT_TRUE(b.feasible);
    EXPECT_EQ(a.sigma1_index, b.sigma1_index);
    EXPECT_EQ(a.sigma2_index, b.sigma2_index);
    EXPECT_NEAR(a.energy_overhead, b.energy_overhead,
                1e-2 * b.energy_overhead);
  }
}

TEST(ExactOptBackend, ParallelBuildIsBitIdentical) {
  // The construction hook may run entries in any order/interleaving; the
  // cache must not depend on it. Drive it with a deliberately reversed
  // schedule and compare every field bitwise.
  ModelParams p = params_for("Coastal/XScale");
  p.lambda_silent *= 10.0;
  ExactOptBackend serial(p);
  serial.prepare();
  ExactOptBackend reversed(p);
  reversed.prepare(
      [](std::size_t count, const std::function<void(std::size_t)>& fn) {
        for (std::size_t i = count; i-- > 0;) fn(i);
      });
  ASSERT_EQ(serial.expansions().size(), reversed.expansions().size());
  for (std::size_t i = 0; i < serial.expansions().size(); ++i) {
    const ExactExpansion& a = serial.expansions()[i];
    const ExactExpansion& b = reversed.expansions()[i];
    EXPECT_EQ(a.w_time, b.w_time);
    EXPECT_EQ(a.rho_min, b.rho_min);
    EXPECT_EQ(a.w_energy, b.w_energy);
    EXPECT_EQ(a.energy_min, b.energy_min);
    EXPECT_EQ(a.time_at_we, b.time_at_we);
    EXPECT_EQ(a.first_order_valid, b.first_order_valid);
  }
  test::expect_identical_pair(
      serial.solve_report(2.0, SpeedPolicy::kTwoSpeed).best,
      reversed.solve_report(2.0, SpeedPolicy::kTwoSpeed).best);
  test::expect_identical_pair(serial.min_rho(SpeedPolicy::kTwoSpeed).pair(),
                              reversed.min_rho(SpeedPolicy::kTwoSpeed).pair());
}

TEST(ExactOptBackend, MinRhoSolutionIsTheExactFloor) {
  ModelParams p = params_for("Hera/XScale");
  p.lambda_silent *= 100.0;
  ExactOptBackend solver(p);
  solver.prepare();
  for (const SpeedPolicy policy :
       {SpeedPolicy::kTwoSpeed, SpeedPolicy::kSingleSpeed}) {
    const PairSolution fallback = solver.min_rho(policy).pair();
    ASSERT_TRUE(fallback.feasible);
    EXPECT_EQ(fallback.time_overhead, fallback.rho_min);
    if (policy == SpeedPolicy::kSingleSpeed) {
      EXPECT_EQ(fallback.sigma1_index, fallback.sigma2_index);
    }
    // No cached pair undercuts the reported floor, and a bound just above
    // it is feasible while one just below is not.
    for (const ExactExpansion& e : solver.expansions()) {
      if (policy == SpeedPolicy::kSingleSpeed && e.index1 != e.index2) {
        continue;
      }
      EXPECT_GE(e.rho_min, fallback.rho_min);
    }
    EXPECT_TRUE(
        solver.solve_report(fallback.rho_min * 1.01, policy).feasible);
    EXPECT_FALSE(
        solver.solve_report(fallback.rho_min * 0.99, policy).feasible);
  }
}

TEST(ExactOptBackend, TightBoundSitsOnTheFeasibilityBoundary) {
  // A bound between rho_min and the unconstrained-optimum overhead forces
  // the bisection branch; the returned pattern must sit on the boundary
  // (time overhead ≈ rho) with the energy still decreasing toward the
  // unconstrained optimum.
  ModelParams p = params_for("Hera/XScale");
  p.lambda_silent *= 100.0;
  ExactOptBackend solver(p);
  solver.prepare();
  bool exercised = false;
  for (const ExactExpansion& e : solver.expansions()) {
    if (!(e.time_at_we > e.rho_min * 1.01)) continue;
    const double rho = 0.5 * (e.rho_min + e.time_at_we);
    const PairSolution sol = solver.solve_pair(
        rho, static_cast<std::size_t>(e.index1),
        static_cast<std::size_t>(e.index2));
    ASSERT_TRUE(sol.feasible);
    EXPECT_NEAR(sol.time_overhead, rho, 1e-6 * rho);
    EXPECT_GE(sol.energy_overhead, e.energy_min * (1.0 - 1e-9));
    exercised = true;
  }
  EXPECT_TRUE(exercised) << "no pair had a tight-bound window to exercise";
}

TEST(ExactOptBackend, RejectsBadArguments) {
  ExactOptBackend solver(toy_params());
  EXPECT_THROW(solver.solve_report(2.0, SpeedPolicy::kTwoSpeed),
               std::logic_error);  // before prepare()
  solver.prepare();
  EXPECT_THROW(solver.solve_report(0.0, SpeedPolicy::kTwoSpeed),
               std::invalid_argument);
  EXPECT_THROW(solver.solve_report(-1.0, SpeedPolicy::kTwoSpeed),
               std::invalid_argument);
  EXPECT_THROW(solver.solve_pair(2.0, 99, 0), std::out_of_range);
  ModelParams bad;  // empty speed set
  EXPECT_THROW(ExactOptBackend{bad}, std::invalid_argument);
}

TEST(SeededMinimizer, MatchesColdStartWithinTolerance) {
  // The warm start changes the bracket, not the optimum: seeded and
  // cold-start minimizations land on the same minimizer of the exact
  // curve within the numeric tolerance, for good and bad seeds alike.
  const ModelParams p = params_for("Hera/XScale");
  const double s1 = p.speeds.front();
  const double s2 = p.speeds.back();
  const auto curve = [&](double w) { return time_overhead(p, w, s1, s2); };
  const double cold = minimize_unimodal_overhead(curve, NumericOptions{});
  for (const double seed : {cold, cold * 0.1, cold * 10.0, 1.0, 0.0, -5.0}) {
    SCOPED_TRACE(seed);
    const double warm =
        minimize_unimodal_overhead(curve, seed, NumericOptions{});
    EXPECT_NEAR(curve(warm), curve(cold),
                1e-9 * std::abs(curve(cold)) + 1e-12);
  }
}

TEST(SeededMinimizer, OverflowingSeedFallsBackToColdStart) {
  // A finite seed deep in the e^{λW} overflow region evaluates to +inf;
  // the seeded bracket must detect that and take the cold-start path
  // instead of golden-sectioning over an all-inf interval.
  const auto curve = [](double w) { return 1.0 / w + std::exp(w); };
  const double cold = minimize_unimodal_overhead(curve, NumericOptions{});
  const double warm =
      minimize_unimodal_overhead(curve, 1e6, NumericOptions{});
  ASSERT_TRUE(std::isfinite(curve(warm)));
  EXPECT_NEAR(curve(warm), curve(cold), 1e-9 * curve(cold));
}

}  // namespace
}  // namespace rexspeed::core
