// The cached interleaved backend: agreement with the per-pair
// optimize_interleaved baseline, the property tests of the optimizer
// (monotonicity in the search cap, infeasibility reporting, λf
// rejection), and the m = 1 reduction to the paper's exact BiCrit solve.

#include <gtest/gtest.h>

#include <stdexcept>

#include "rexspeed/core/bicrit_solver.hpp"
#include "rexspeed/core/interleaved.hpp"
#include "rexspeed/core/solver_backend.hpp"
#include "test_util.hpp"

namespace rexspeed::core {
namespace {

using test::params_for;
using test::toy_params;

/// A backend over `params` with its cache built.
InterleavedBackend prepared(const ModelParams& params, unsigned max_segments) {
  InterleavedBackend backend(params, max_segments);
  backend.prepare();
  return backend;
}

/// The best pattern over every pair and count at `rho`.
InterleavedSolution searched(const InterleavedBackend& backend, double rho) {
  return backend.solve(rho, SpeedPolicy::kTwoSpeed, false).interleaved();
}

/// The best pattern over every pair at exactly `segments`.
InterleavedSolution pinned(const InterleavedBackend& backend, double rho,
                           unsigned segments) {
  return backend.solve_segments(rho, segments).interleaved();
}

/// The uncached reference: best pattern over every pair at the given cap.
InterleavedSolution best_by_rebuild(const ModelParams& params, double rho,
                                    unsigned max_segments) {
  InterleavedSolution best;
  bool first = true;
  for (const double sigma1 : params.speeds) {
    for (const double sigma2 : params.speeds) {
      const InterleavedSolution candidate =
          optimize_interleaved(params, rho, sigma1, sigma2, max_segments);
      if (!candidate.feasible) continue;
      if (first || candidate.energy_overhead < best.energy_overhead) {
        best = candidate;
        first = false;
      }
    }
  }
  return best;
}

TEST(InterleavedBackend, MatchesPerPairRebuildAcrossBounds) {
  // The cache must change the cost, not the answer: the boundary-snap
  // solve on cached expansions agrees with the golden-section rebuild at
  // every bound, tight and loose.
  ModelParams p = params_for("Hera/XScale");
  p.lambda_silent *= 100.0;
  p.verification_s = 2.0;
  const InterleavedBackend solver = prepared(p, 6);
  for (const double rho : {2.7, 3.0, 4.0, 6.0}) {
    SCOPED_TRACE(rho);
    const InterleavedSolution cached = searched(solver, rho);
    const InterleavedSolution rebuilt = best_by_rebuild(p, rho, 6);
    ASSERT_EQ(cached.feasible, rebuilt.feasible);
    if (!cached.feasible) continue;
    EXPECT_NEAR(cached.energy_overhead, rebuilt.energy_overhead,
                1e-6 * rebuilt.energy_overhead);
    EXPECT_LE(cached.time_overhead, rho * (1.0 + 1e-9));
    // The reported overheads are the curves evaluated at the reported W.
    EXPECT_NEAR(cached.energy_overhead,
                expected_energy_interleaved(p, cached.w_opt, cached.segments,
                                            cached.sigma1, cached.sigma2) /
                    cached.w_opt,
                1e-12 * cached.energy_overhead);
  }
}

TEST(InterleavedBackend, FixedSegmentCountMatchesRebuild) {
  ModelParams p = toy_params();
  p.lambda_silent = 1e-3;
  p.verification_s = 0.5;
  const InterleavedBackend solver = prepared(p, 5);
  for (unsigned m = 1; m <= 5; ++m) {
    SCOPED_TRACE(m);
    const InterleavedSolution cached = pinned(solver, 4.0, m);
    InterleavedSolution rebuilt;
    bool first = true;
    for (const double s1 : p.speeds) {
      for (const double s2 : p.speeds) {
        // A cap-m optimizer restricted to exactly m: cap the search at m
        // and keep only candidates that chose m.
        const InterleavedSolution candidate =
            optimize_interleaved(p, 4.0, s1, s2, m);
        if (!candidate.feasible || candidate.segments != m) continue;
        if (first || candidate.energy_overhead < rebuilt.energy_overhead) {
          rebuilt = candidate;
          first = false;
        }
      }
    }
    if (!cached.feasible) continue;
    EXPECT_EQ(cached.segments, m);
    // The true fixed-m optimum can only match or beat any cap-m candidate
    // that happened to choose m (the cap search may prefer a smaller m
    // for every pair, in which case there is nothing to compare).
    if (!first) {
      EXPECT_LE(cached.energy_overhead,
                rebuilt.energy_overhead * (1.0 + 1e-6));
    }
  }
}

TEST(InterleavedBackend, SegmentsOneMatchesExactBiCritSolve) {
  // m = 1 through the interleaved machinery IS the paper's exact-opt
  // two-speed solve: same objective, same constraint, silent errors only.
  const ModelParams p = params_for("Hera/XScale");
  const InterleavedBackend solver = prepared(p, 1);
  const InterleavedSolution interleaved = searched(solver, 3.0);
  const BiCritSolver bicrit(p);
  const BiCritSolution exact =
      bicrit.solve(3.0, SpeedPolicy::kTwoSpeed, EvalMode::kExactOptimize);
  ASSERT_TRUE(interleaved.feasible);
  ASSERT_TRUE(exact.feasible);
  EXPECT_EQ(interleaved.segments, 1u);
  EXPECT_EQ(interleaved.sigma1, exact.best.sigma1);
  EXPECT_EQ(interleaved.sigma2, exact.best.sigma2);
  EXPECT_NEAR(interleaved.energy_overhead, exact.best.energy_overhead,
              1e-6 * exact.best.energy_overhead);
  EXPECT_NEAR(interleaved.w_opt, exact.best.w_opt, 1e-4 * exact.best.w_opt);
}

TEST(OptimizeInterleaved, EnergyMonotoneNonIncreasingInMaxSegments) {
  // Property: a larger search cap can only help — the optimal energy
  // overhead is non-increasing in max_segments (the search sets nest).
  ModelParams p = params_for("Hera/XScale");
  p.lambda_silent = 1e-3;
  p.verification_s = 1.0;
  double previous = 0.0;
  for (unsigned cap = 1; cap <= 8; ++cap) {
    const InterleavedSolution sol =
        optimize_interleaved(p, 5.0, 0.6, 0.6, cap);
    ASSERT_TRUE(sol.feasible) << cap;
    EXPECT_LE(sol.segments, cap);
    if (cap > 1) {
      EXPECT_LE(sol.energy_overhead, previous * (1.0 + 1e-9)) << cap;
    }
    previous = sol.energy_overhead;
  }
}

TEST(InterleavedBackend, EnergyMonotoneNonIncreasingInMaxSegments) {
  // The same nesting property through the cached full-pair search.
  ModelParams p = params_for("Hera/XScale");
  p.lambda_silent = 1e-3;
  p.verification_s = 1.0;
  double previous = 0.0;
  for (unsigned cap = 1; cap <= 8; ++cap) {
    const InterleavedSolution sol = searched(prepared(p, cap), 5.0);
    ASSERT_TRUE(sol.feasible) << cap;
    if (cap > 1) {
      EXPECT_LE(sol.energy_overhead, previous * (1.0 + 1e-9)) << cap;
    }
    previous = sol.energy_overhead;
  }
}

TEST(OptimizeInterleaved, InfeasibleRhoReportedInfeasibleNeverThrows) {
  // Property: an unattainable bound is reported, not thrown — and the
  // solver agrees with the per-pair optimizer about where the horizon is.
  const ModelParams p = params_for("Hera/XScale");
  const InterleavedSolution per_pair =
      optimize_interleaved(p, 0.9, 1.0, 1.0, 4);
  EXPECT_FALSE(per_pair.feasible);
  EXPECT_EQ(per_pair.energy_overhead, 0.0);

  const InterleavedBackend solver = prepared(p, 4);
  const InterleavedSolution all_pairs = searched(solver, 0.9);
  EXPECT_FALSE(all_pairs.feasible);
  EXPECT_EQ(all_pairs.energy_overhead, 0.0);
  EXPECT_FALSE(pinned(solver, 0.9, 2).feasible);
}

TEST(InterleavedBackend, FailstopRatesAreRejectedAsDocumented) {
  // λf ≠ 0 throws, per the core/interleaved.hpp contract — at
  // construction for the backend, at call time for the free functions.
  ModelParams p = toy_params();
  p.lambda_failstop = 1e-5;
  EXPECT_THROW(InterleavedBackend(p, 4), std::invalid_argument);
  EXPECT_THROW((void)optimize_interleaved(p, 3.0, 0.5, 0.5, 4),
               std::invalid_argument);
}

TEST(InterleavedBackend, RejectsBadArguments) {
  const ModelParams p = toy_params();
  EXPECT_THROW(InterleavedBackend(p, 0), std::invalid_argument);
  InterleavedBackend solver(p, 4);
  EXPECT_THROW((void)searched(solver, 3.0), std::logic_error);  // unprepared
  solver.prepare();
  EXPECT_THROW((void)searched(solver, 0.0), std::invalid_argument);
  EXPECT_THROW((void)pinned(solver, 3.0, 0), std::invalid_argument);
  EXPECT_THROW((void)pinned(solver, 3.0, 5), std::invalid_argument);
}

TEST(InterleavedBackend, CacheShapeCoversEveryPairAndCount) {
  const ModelParams p = toy_params();  // 3 speeds
  const InterleavedBackend solver = prepared(p, 4);
  EXPECT_EQ(solver.max_segments(), 4u);
  ASSERT_EQ(solver.expansions().size(), 3u * 3u * 4u);
  // Entry (i, j, m) sits at (i * K + j) * max_segments + (m - 1).
  const InterleavedExpansion& entry =
      solver.expansions()[(1 * 3 + 2) * 4 + (3 - 1)];
  EXPECT_EQ(entry.index1, 1);
  EXPECT_EQ(entry.index2, 2);
  EXPECT_EQ(entry.segments, 3u);
  EXPECT_EQ(entry.sigma1, p.speeds[1]);
  EXPECT_EQ(entry.sigma2, p.speeds[2]);
  // The cached thresholds are consistent: the energy optimum can never
  // beat the time optimum on the time axis.
  for (const InterleavedExpansion& expansion : solver.expansions()) {
    EXPECT_GE(expansion.time_at_we, expansion.rho_min);
    EXPECT_GT(expansion.w_time, 0.0);
    EXPECT_GT(expansion.w_energy, 0.0);
  }
}

}  // namespace
}  // namespace rexspeed::core
