// The polymorphic SolverBackend interface: the unified Solution view,
// capability advertising, the prepare lifecycle, the shared panel-point
// kernel, and rebind semantics — everything the engine's generic drivers
// rely on instead of mode branches — plus the point solves every caller
// makes off a prepared backend: bit-identity with a per-call reference
// that re-derives the first-order expansions, fallback beyond the
// feasibility horizon, the pair-index range check, and one backend
// serving a whole ρ grid.

#include "rexspeed/core/solver_backend.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>

#include "rexspeed/core/exact_expectations.hpp"
#include "rexspeed/core/feasibility.hpp"
#include "rexspeed/core/first_order.hpp"
#include "test_util.hpp"

namespace rexspeed::core {
namespace {

using test::expect_identical_interleaved;
using test::expect_identical_pair;

ModelParams hot_params() {
  ModelParams params = test::params_for("Hera/XScale");
  params.lambda_silent = 1e-3;
  params.verification_s = 1.0;
  return params;
}

TEST(Solution, CommonViewDispatchesOnTheKind) {
  PairSolution pair;
  pair.feasible = true;
  pair.sigma1 = 0.4;
  pair.sigma2 = 0.8;
  pair.w_opt = 1000.0;
  pair.energy_overhead = 400.0;
  pair.time_overhead = 2.5;
  const Solution from_pair = Solution::from_pair(pair, true);
  EXPECT_EQ(from_pair.kind(), SolutionKind::kPair);
  EXPECT_TRUE(from_pair.feasible());
  EXPECT_TRUE(from_pair.used_fallback);
  EXPECT_DOUBLE_EQ(from_pair.sigma1(), 0.4);
  EXPECT_DOUBLE_EQ(from_pair.sigma2(), 0.8);
  EXPECT_DOUBLE_EQ(from_pair.w_opt(), 1000.0);
  EXPECT_DOUBLE_EQ(from_pair.energy_overhead(), 400.0);
  EXPECT_DOUBLE_EQ(from_pair.time_overhead(), 2.5);
  EXPECT_EQ(from_pair.segments(), 1u);  // the paper's own pattern

  InterleavedSolution seg;
  seg.feasible = true;
  seg.segments = 4;
  seg.sigma1 = 0.6;
  seg.sigma2 = 0.4;
  seg.w_opt = 2000.0;
  seg.energy_overhead = 350.0;
  seg.time_overhead = 3.0;
  const Solution from_seg = Solution::from_interleaved(seg);
  EXPECT_EQ(from_seg.kind(), SolutionKind::kInterleaved);
  EXPECT_TRUE(from_seg.feasible());
  EXPECT_FALSE(from_seg.used_fallback);
  EXPECT_EQ(from_seg.segments(), 4u);
  EXPECT_DOUBLE_EQ(from_seg.energy_overhead(), 350.0);

  // Default: an infeasible pair solution.
  const Solution empty;
  EXPECT_EQ(empty.kind(), SolutionKind::kPair);
  EXPECT_FALSE(empty.feasible());
}

// A panel keeps one PanelPoint per grid point (10001 points × 52 panels
// on a registry campaign), so the row must not regrow: one payload per
// Solution, not both.
static_assert(sizeof(PanelPoint) <= 216,
              "PanelPoint regrew: a Solution holds one payload, not both");

TEST(Solution, ReadingTheOtherPayloadThrows) {
  const Solution pair = Solution::from_pair(PairSolution{});
  const Solution pattern = Solution::from_interleaved(InterleavedSolution{});
  EXPECT_NO_THROW((void)pair.pair());
  EXPECT_NO_THROW((void)pattern.interleaved());
  EXPECT_THROW((void)pair.interleaved(), std::logic_error);
  EXPECT_THROW((void)pattern.pair(), std::logic_error);
  Solution mutable_pattern = pattern;
  EXPECT_THROW(mutable_pattern.pair().w_opt = 1.0, std::logic_error);
  EXPECT_EQ(pair.payload_if<InterleavedSolution>(), nullptr);
  EXPECT_EQ(pattern.payload_if<PairSolution>(), nullptr);
}

TEST(ClosedFormBackend, MatchesBiCritSolverBitForBit) {
  const ModelParams params = test::params_for("Hera/XScale");
  const BiCritSolver reference(params);
  for (const EvalMode mode :
       {EvalMode::kFirstOrder, EvalMode::kExactEvaluation}) {
    const ClosedFormBackend backend(params, mode);
    EXPECT_FALSE(backend.needs_prepare());
    for (const double rho : {1.4, 2.0, 3.0}) {
      for (const SpeedPolicy policy :
           {SpeedPolicy::kTwoSpeed, SpeedPolicy::kSingleSpeed}) {
        expect_identical_pair(backend.solve(rho, policy, false).pair(),
                              reference.solve(rho, policy, mode).best);
      }
    }
    expect_identical_pair(backend.solve_pair(2.0, 0, 1),
                          reference.solve_pair_by_index(2.0, 0, 1, mode));
    for (const SpeedPolicy policy :
         {SpeedPolicy::kTwoSpeed, SpeedPolicy::kSingleSpeed}) {
      expect_identical_pair(backend.min_rho(policy).pair(),
                            reference.min_rho_solution(policy));
    }
  }
}

// Reference implementation: a per-call solver that re-derives both
// first-order expansions on every pair solve. The prepared closed-form
// backend caches those very expansions, so it must reproduce this bit
// for bit.

PairSolution per_call_solve_pair(const ModelParams& params, double rho,
                                 double sigma1, double sigma2,
                                 EvalMode mode) {
  PairSolution sol;
  sol.sigma1 = sigma1;
  sol.sigma2 = sigma2;

  const OverheadExpansion time_exp = time_expansion(params, sigma1, sigma2);
  const OverheadExpansion energy_exp =
      energy_expansion(params, sigma1, sigma2);
  sol.first_order_valid = time_exp.y > 0.0 && energy_exp.y > 0.0;
  sol.rho_min = core::rho_min(time_exp);
  if (!sol.first_order_valid) return sol;

  const FeasibleInterval interval = feasible_interval(time_exp, rho);
  if (!interval.feasible()) return sol;
  sol.w_min = interval.w_min;
  sol.w_max = interval.w_max;
  sol.w_energy = energy_exp.has_interior_minimum() ? energy_exp.argmin()
                                                   : interval.w_max;
  if (!std::isfinite(sol.w_energy)) {
    sol.w_energy = std::isfinite(interval.w_max) ? interval.w_max : 1e12;
  }
  sol.w_opt = std::min(std::max(interval.w_min, sol.w_energy),
                       std::isfinite(interval.w_max)
                           ? interval.w_max
                           : std::numeric_limits<double>::max());
  sol.feasible = true;

  if (mode == EvalMode::kFirstOrder) {
    sol.energy_overhead = energy_exp.evaluate(sol.w_opt);
    sol.time_overhead = time_exp.evaluate(sol.w_opt);
  } else {
    sol.energy_overhead = energy_overhead(params, sol.w_opt, sigma1, sigma2);
    sol.time_overhead = time_overhead(params, sol.w_opt, sigma1, sigma2);
  }
  return sol;
}

PairSolution per_call_best(const ModelParams& params, double rho,
                           SpeedPolicy policy, EvalMode mode) {
  PairSolution best;
  double best_energy = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < params.speeds.size(); ++i) {
    for (std::size_t j = 0; j < params.speeds.size(); ++j) {
      if (policy == SpeedPolicy::kSingleSpeed && i != j) continue;
      const PairSolution pair = per_call_solve_pair(
          params, rho, params.speeds[i], params.speeds[j], mode);
      if (pair.feasible && pair.energy_overhead < best_energy) {
        best_energy = pair.energy_overhead;
        best = pair;
      }
    }
  }
  return best;
}

void expect_same_solution(const PairSolution& cached,
                          const PairSolution& per_call) {
  EXPECT_EQ(cached.feasible, per_call.feasible);
  if (!cached.feasible || !per_call.feasible) return;
  EXPECT_EQ(cached.sigma1, per_call.sigma1);
  EXPECT_EQ(cached.sigma2, per_call.sigma2);
  EXPECT_EQ(cached.w_opt, per_call.w_opt);
  EXPECT_EQ(cached.w_min, per_call.w_min);
  EXPECT_EQ(cached.w_max, per_call.w_max);
  EXPECT_EQ(cached.energy_overhead, per_call.energy_overhead);
  EXPECT_EQ(cached.time_overhead, per_call.time_overhead);
  EXPECT_EQ(cached.rho_min, per_call.rho_min);
}

std::unique_ptr<SolverBackend> prepared_first_order(
    const ModelParams& params) {
  return test::prepared(make_mode_backend(params, EvalMode::kFirstOrder));
}

TEST(ClosedFormBackend, MatchesPerCallSolveOnAllConfigurations) {
  const double bounds[] = {1.2, 1.4, 1.775, 2.0, 3.0, 8.0};
  for (const auto& config : platform::all_configurations()) {
    const ModelParams params = ModelParams::from_configuration(config);
    for (const EvalMode mode :
         {EvalMode::kFirstOrder, EvalMode::kExactEvaluation}) {
      const auto backend = test::prepared(make_mode_backend(params, mode));
      for (const double rho : bounds) {
        for (const SpeedPolicy policy :
             {SpeedPolicy::kTwoSpeed, SpeedPolicy::kSingleSpeed}) {
          SCOPED_TRACE(config.name() + " rho=" + std::to_string(rho));
          const Solution cached = backend->solve(rho, policy);
          const PairSolution reference =
              per_call_best(params, rho, policy, mode);
          EXPECT_EQ(cached.feasible(), reference.feasible);
          expect_same_solution(cached.pair(), reference);
        }
      }
    }
  }
}

TEST(ClosedFormBackend, ReportPairsMatchPerCallPairByPair) {
  const ModelParams params = test::params_for("Atlas/Crusoe");
  const BiCritSolution solution =
      prepared_first_order(params)->solve_report(3.0);
  ASSERT_EQ(solution.pairs.size(),
            params.speeds.size() * params.speeds.size());
  for (const auto& pair : solution.pairs) {
    expect_same_solution(pair,
                         per_call_solve_pair(params, 3.0, pair.sigma1,
                                             pair.sigma2,
                                             EvalMode::kFirstOrder));
  }
}

TEST(ClosedFormBackend, SolvePairByIndexChecksRange) {
  const auto backend = prepared_first_order(test::toy_params());
  EXPECT_NO_THROW((void)backend->solve_pair(3.0, 0, 2));
  EXPECT_THROW((void)backend->solve_pair(3.0, 0, 3), std::out_of_range);
  EXPECT_THROW((void)backend->solve_pair(3.0, 7, 0), std::out_of_range);
}

TEST(ClosedFormBackend, SharedAcrossRhoGridMatchesPerPointBackends) {
  // The ρ-panel fast path: one prepared backend, many bounds.
  const ModelParams params = test::params_for("Coastal/XScale");
  const auto shared = prepared_first_order(params);
  for (double rho = 1.1; rho < 4.0; rho += 0.3) {
    expect_same_solution(shared->solve(rho).pair(),
                         prepared_first_order(params)->solve(rho).pair());
  }
}

TEST(ClosedFormBackend, FallbackSemanticsMatchTheHistoricalKernel) {
  // Atlas/Crusoe at ρ = 1 is infeasible: with the fallback the backend
  // degrades to the min-ρ policy and flags it; without, it reports the
  // infeasible solve untouched.
  const ClosedFormBackend backend(test::params_for("Atlas/Crusoe"),
                                  EvalMode::kFirstOrder);
  const Solution with = backend.solve(1.0, SpeedPolicy::kTwoSpeed, true);
  EXPECT_TRUE(with.feasible());
  EXPECT_TRUE(with.used_fallback);
  expect_identical_pair(with.pair(),
                        backend.min_rho(SpeedPolicy::kTwoSpeed).pair());
  const Solution without =
      backend.solve(1.0, SpeedPolicy::kTwoSpeed, false);
  EXPECT_FALSE(without.feasible());
  EXPECT_FALSE(without.used_fallback);
  // A feasible bound never takes the fallback, asked or not.
  const Solution feasible = backend.solve(3.0, SpeedPolicy::kTwoSpeed, true);
  EXPECT_TRUE(feasible.feasible());
  EXPECT_FALSE(feasible.used_fallback);
}

TEST(ClosedFormBackend, CapabilitiesDescribeThePairFamily) {
  const ClosedFormBackend backend(test::params_for("Hera/XScale"),
                                  EvalMode::kFirstOrder);
  const BackendCapabilities& caps = backend.capabilities();
  EXPECT_EQ(caps.kind, SolutionKind::kPair);
  EXPECT_EQ(caps.axes.size(), 6u);
  EXPECT_TRUE(caps.supports(SweepAxis::kCheckpointTime));
  EXPECT_FALSE(caps.supports(SweepAxis::kSegments));
  EXPECT_TRUE(caps.shares_panel_solver(SweepAxis::kPerformanceBound));
  EXPECT_FALSE(caps.shares_panel_solver(SweepAxis::kErrorRate));
  EXPECT_TRUE(caps.pair_table);
  EXPECT_TRUE(caps.min_rho_fallback);
  EXPECT_EQ(caps.max_segments, 1u);
  EXPECT_FALSE(caps.validity.empty());
  // Mode-dependent per-point cost: exact per-bound optimization is the
  // heaviest closed-form path.
  const ClosedFormBackend exact(test::params_for("Hera/XScale"),
                                EvalMode::kExactOptimize);
  EXPECT_GT(exact.capabilities().cost_weight, caps.cost_weight);
}

TEST(ClosedFormBackend, SegmentsSolveIsRejected) {
  const ClosedFormBackend backend(test::params_for("Hera/XScale"),
                                  EvalMode::kFirstOrder);
  EXPECT_THROW((void)backend.solve_segments(3.0, 2), std::logic_error);
}

TEST(ExactOptBackend, PrepareLifecycleAndRouting) {
  const ModelParams params = test::params_for("Hera/XScale");
  ExactOptBackend backend(params);
  EXPECT_TRUE(backend.needs_prepare());
  EXPECT_TRUE(backend.expansions().empty());
  EXPECT_THROW((void)backend.solve_report(2.0, SpeedPolicy::kTwoSpeed),
               std::logic_error);
  EXPECT_THROW((void)backend.min_rho(SpeedPolicy::kTwoSpeed),
               std::logic_error);
  backend.prepare();
  EXPECT_FALSE(backend.needs_prepare());
  const std::size_t k = params.speeds.size();
  ASSERT_EQ(backend.expansions().size(), k * k);
  ASSERT_EQ(backend.rho_mins().size(), k * k);
  ASSERT_EQ(backend.times_at_we().size(), k * k);
  for (std::size_t s = 0; s < k * k; ++s) {
    EXPECT_EQ(backend.rho_mins()[s], backend.expansions()[s].rho_min);
    EXPECT_EQ(backend.times_at_we()[s], backend.expansions()[s].time_at_we);
  }
  const ExactExpansion first = backend.expansions().front();
  backend.prepare();  // idempotent
  EXPECT_EQ(backend.expansions().size(), k * k);
  EXPECT_EQ(backend.expansions().front().w_energy, first.w_energy);

  // Routing: solve is the report's best, solve_pair its (i, j) entry, and
  // the single-speed fallback sits on the diagonal.
  const BiCritSolution report =
      backend.solve_report(2.0, SpeedPolicy::kTwoSpeed);
  expect_identical_pair(
      backend.solve(2.0, SpeedPolicy::kTwoSpeed, false).pair(), report.best);
  expect_identical_pair(backend.solve_pair(2.0, 1, 0), report.pairs[1 * k]);
  const PairSolution fallback =
      backend.min_rho(SpeedPolicy::kSingleSpeed).pair();
  EXPECT_TRUE(fallback.feasible);
  EXPECT_EQ(fallback.sigma1_index, fallback.sigma2_index);
}

TEST(ExactOptBackend, RebindYieldsThePerBoundClosedFormPath) {
  // Model-axis panels historically solved each point with the per-bound
  // numeric path off a fresh BiCritSolver — rebind must reproduce exactly
  // that, not the cached curve structure.
  const ModelParams params = test::params_for("Hera/XScale");
  ExactOptBackend backend(params);
  const auto rebound = backend.rebind(params);
  EXPECT_FALSE(rebound->needs_prepare());
  const BiCritSolver reference(params);
  expect_identical_pair(
      rebound->solve(2.0, SpeedPolicy::kTwoSpeed, false).pair(),
      reference.solve(2.0, SpeedPolicy::kTwoSpeed,
                      EvalMode::kExactOptimize)
          .best);
}

TEST(InterleavedBackend, ValidatesEagerlyAndRoutesEverySolve) {
  const ModelParams params = hot_params();
  InterleavedBackend backend(params, 6);
  EXPECT_TRUE(backend.needs_prepare());
  EXPECT_THROW((void)backend.solve_segments(5.0, 3), std::logic_error);
  backend.prepare();
  const std::size_t k = params.speeds.size();
  ASSERT_EQ(backend.expansions().size(), k * k * 6);
  ASSERT_EQ(backend.rho_mins().size(), k * k * 6);
  ASSERT_EQ(backend.times_at_we().size(), k * k * 6);
  backend.prepare();  // idempotent
  EXPECT_EQ(backend.expansions().size(), k * k * 6);
  // The search is the best of the pinned solves; the baseline is m = 1.
  const InterleavedSolution searched =
      backend.solve(5.0, SpeedPolicy::kTwoSpeed, false).interleaved();
  ASSERT_TRUE(searched.feasible);
  expect_identical_interleaved(
      searched, backend.solve_segments(5.0, searched.segments).interleaved());
  for (unsigned m = 1; m <= 6; ++m) {
    const InterleavedSolution at_m = backend.solve_segments(5.0, m).interleaved();
    EXPECT_EQ(at_m.segments, m);
    if (at_m.feasible) {
      EXPECT_GE(at_m.energy_overhead, searched.energy_overhead);
    }
  }
  expect_identical_interleaved(backend.solve_baseline(5.0, false).interleaved(),
                               backend.solve_segments(5.0, 1).interleaved());
  // No min-ρ fallback in this family: an infeasible Solution, and the
  // fallback flag on solve is accepted-but-ignored.
  EXPECT_FALSE(backend.min_rho(SpeedPolicy::kTwoSpeed).feasible());
  EXPECT_FALSE(
      backend.solve(5.0, SpeedPolicy::kTwoSpeed, true).used_fallback);

  // A pinned count stays pinned through the generic solve.
  InterleavedBackend pinned(params, 6, 3);
  pinned.prepare();
  expect_identical_interleaved(
      pinned.solve(5.0, SpeedPolicy::kTwoSpeed, false).interleaved(),
      backend.solve_segments(5.0, 3).interleaved());

  // Construction-time rejection (never inside a worker).
  ModelParams failstop = params;
  failstop.lambda_failstop = 1e-5;
  EXPECT_THROW(InterleavedBackend(failstop, 4), std::invalid_argument);
  EXPECT_THROW(InterleavedBackend(params, 0), std::invalid_argument);
  EXPECT_THROW(InterleavedBackend(params, 4, 5), std::invalid_argument);
}

TEST(SolverBackend, PanelPointKernelCoversEveryAxisShape) {
  // The shared per-grid-point kernel: ρ-axis x is the bound, segments-axis
  // x is the pinned count, model axes use the panel bound.
  const ModelParams params = hot_params();
  InterleavedBackend interleaved(params, 6);
  interleaved.prepare();

  const PanelPoint rho_point = interleaved.solve_panel_point(
      SweepAxis::kPerformanceBound, 5.0, 99.0, false);
  expect_identical_interleaved(
      rho_point.primary.interleaved(),
      interleaved.solve(5.0, SpeedPolicy::kTwoSpeed, false).interleaved());
  expect_identical_interleaved(rho_point.baseline.interleaved(),
                               interleaved.solve_segments(5.0, 1).interleaved());

  const PanelPoint m_point =
      interleaved.solve_panel_point(SweepAxis::kSegments, 3.0, 5.0, false);
  expect_identical_interleaved(m_point.primary.interleaved(),
                               interleaved.solve_segments(5.0, 3).interleaved());
  EXPECT_GE(m_point.energy_saving(), 0.0);

  const ClosedFormBackend pair(test::params_for("Hera/XScale"),
                               EvalMode::kFirstOrder);
  const BiCritSolver pair_reference(test::params_for("Hera/XScale"));
  const PanelPoint c_point =
      pair.solve_panel_point(SweepAxis::kCheckpointTime, 1000.0, 3.0, true);
  EXPECT_DOUBLE_EQ(c_point.x, 1000.0);
  // Model axes assume a rebound backend; the bound is the panel's ρ.
  expect_identical_pair(
      c_point.primary.pair(),
      pair_reference.solve(3.0, SpeedPolicy::kTwoSpeed).best);
  expect_identical_pair(
      c_point.baseline.pair(),
      pair_reference.solve(3.0, SpeedPolicy::kSingleSpeed).best);
}

TEST(MakeModeBackend, DispatchesOnTheEvalMode) {
  const ModelParams params = test::params_for("Hera/XScale");
  EXPECT_STREQ(make_mode_backend(params, EvalMode::kFirstOrder)->name(),
               "first-order");
  EXPECT_STREQ(
      make_mode_backend(params, EvalMode::kExactEvaluation)->name(),
      "exact-eval");
  const auto exact = make_mode_backend(params, EvalMode::kExactOptimize);
  EXPECT_STREQ(exact->name(), "exact-opt");
  EXPECT_TRUE(exact->needs_prepare());
}

}  // namespace
}  // namespace rexspeed::core
