// The cached exact backend through the engine layer: registry routing,
// exact-mode ρ sweeps parallel ≡ serial, campaign ≡ standalone, the
// regression of the cached solve against the uncached optimize_exact_pair
// path across every registered scenario, and the paper-regime agreement
// of exact-opt with first-order at small λ.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <stdexcept>
#include <vector>

#include "rexspeed/engine/backend_registry.hpp"
#include "rexspeed/engine/campaign_runner.hpp"
#include "rexspeed/engine/scenario.hpp"
#include "rexspeed/engine/sweep_engine.hpp"
#include "rexspeed/store/serialize.hpp"
#include "rexspeed/sweep/section42_tables.hpp"
#include "test_util.hpp"

namespace rexspeed::engine {
namespace {

using test::expect_identical_pair;
using test::expect_identical_panel;

ScenarioSpec exact_rho_spec() {
  return parse_scenario(
      "name=exact config=Hera/XScale mode=exact-opt param=rho points=9");
}

std::unique_ptr<core::SolverBackend> prepared(const ScenarioSpec& spec) {
  return test::prepared(make_backend(spec));
}

TEST(ExactBackend, RegistryRoutesTheCachedBackend) {
  const ScenarioSpec spec = exact_rho_spec();
  const std::unique_ptr<core::SolverBackend> exact = prepared(spec);
  EXPECT_STREQ(exact->name(), "exact-opt");
  EXPECT_FALSE(exact->needs_prepare());
  // Routing: the registry backend IS a directly built ExactOptBackend
  // (deterministic preparation → bit-identical).
  core::ExactOptBackend standalone(spec.resolve_params());
  standalone.prepare();
  expect_identical_pair(
      exact->solve(2.0, core::SpeedPolicy::kTwoSpeed).pair(),
      standalone.solve_report(2.0, core::SpeedPolicy::kTwoSpeed).best);
  expect_identical_pair(exact->solve_pair(2.0, 0, 1),
                        standalone.solve_pair(2.0, 0, 1));
  // The first-order registry entry keeps the closed-form path.
  ScenarioSpec first = spec;
  first.mode = core::EvalMode::kFirstOrder;
  const std::unique_ptr<core::SolverBackend> closed = prepared(first);
  EXPECT_STREQ(closed->name(), "first-order");
  expect_identical_pair(
      closed->solve(2.0, core::SpeedPolicy::kTwoSpeed).pair(),
      core::BiCritSolver(spec.resolve_params())
          .solve(2.0, core::SpeedPolicy::kTwoSpeed,
                 core::EvalMode::kFirstOrder)
          .best);
}

TEST(ExactBackend, UnpreparedBackendRefusesToSolve) {
  // The exact backend defers its per-pair curve optimization to
  // prepare(); solving before that is a programming error, reported
  // instead of silently recomputing per bound.
  core::ExactOptBackend backend(exact_rho_spec().resolve_params());
  ASSERT_TRUE(backend.needs_prepare());
  EXPECT_THROW((void)backend.solve(2.0, core::SpeedPolicy::kTwoSpeed,
                                   false),
               std::logic_error);
  backend.prepare();
  EXPECT_FALSE(backend.needs_prepare());
  EXPECT_TRUE(
      backend.solve(2.0, core::SpeedPolicy::kTwoSpeed, false).feasible());
}

TEST(ExactBackend, PooledPreparationIsBitIdentical) {
  const core::ModelParams params = exact_rho_spec().resolve_params();
  sweep::ThreadPool pool(4);
  core::ExactOptBackend serial(params);
  serial.prepare();
  core::ExactOptBackend pooled(params);
  pooled.prepare(sweep::make_parallel_build(&pool));
  ASSERT_EQ(serial.expansions().size(),
            pooled.expansions().size());
  for (std::size_t i = 0; i < serial.expansions().size(); ++i) {
    EXPECT_EQ(serial.expansions()[i].w_time,
              pooled.expansions()[i].w_time);
    EXPECT_EQ(serial.expansions()[i].w_energy,
              pooled.expansions()[i].w_energy);
    EXPECT_EQ(serial.expansions()[i].rho_min,
              pooled.expansions()[i].rho_min);
  }
  expect_identical_pair(
      serial.solve_report(1.8, core::SpeedPolicy::kTwoSpeed).best,
      pooled.solve_report(1.8, core::SpeedPolicy::kTwoSpeed).best);
}

TEST(ExactBackend, RhoSweepParallelEqualsSerial) {
  // The acceptance guarantee: exact-mode ρ sweeps are bit-identical
  // parallel vs serial, any thread count.
  const ScenarioSpec spec = exact_rho_spec();
  const SweepEngine serial({.threads = 1});
  const SweepEngine parallel({.threads = 4});
  expect_identical_panel(serial.run_scenario(spec)[0],
                         parallel.run_scenario(spec)[0]);
}

TEST(ExactBackend, CampaignMatchesStandaloneSweep) {
  // The flattened stream (prepare in phase 1.5, points in phase 2) must
  // reproduce the standalone engine run bit for bit — serial and
  // parallel runners alike.
  const ScenarioSpec spec = exact_rho_spec();
  const SweepEngine engine({.threads = 1});
  const sweep::PanelSeries standalone = engine.run_scenario(spec)[0];
  for (const unsigned threads : {1u, 4u}) {
    SCOPED_TRACE(threads);
    const CampaignRunner runner({.threads = threads});
    const ScenarioResult result = runner.run_one(spec);
    ASSERT_EQ(result.panels.size(), 1u);
    expect_identical_panel(result.panels[0], standalone);
  }
}

TEST(ExactBackend, ExactSolveScenarioMatchesCampaign) {
  // kSolve scenarios in exact-opt mode route through the same registry
  // backend in solve_scenario and in the campaign's task stream.
  const ScenarioSpec spec = parse_scenario(
      "name=exact_solve config=Atlas/Crusoe mode=exact-opt param=none "
      "rho=2.5");
  const core::Solution direct = solve_scenario(spec);
  const CampaignRunner runner({.threads = 1});
  const ScenarioResult result = runner.run_one(spec);
  test::expect_identical_solution(direct, result.solution);
}

TEST(ExactBackend, RegressionAcrossRegisteredScenarios) {
  // The cached exact-opt solve ≡ the uncached optimize_exact_pair path
  // (through BiCritSolver::solve in kExactOptimize) for every registered
  // scenario's resolved parameters at its registered bound.
  for (const ScenarioSpec& spec : scenario_registry()) {
    if (spec.interleaved()) continue;  // different solution type
    SCOPED_TRACE(spec.name);
    const core::ModelParams params = spec.resolve_params();
    core::ExactOptBackend cached(params);
    cached.prepare();
    const core::BiCritSolver uncached(params);
    const core::BiCritSolution a = cached.solve_report(spec.rho, spec.policy);
    const core::BiCritSolution b =
        uncached.solve(spec.rho, spec.policy,
                       core::EvalMode::kExactOptimize);
    ASSERT_EQ(a.feasible, b.feasible);
    if (!a.feasible) continue;
    EXPECT_EQ(a.best.sigma1_index, b.best.sigma1_index);
    EXPECT_EQ(a.best.sigma2_index, b.best.sigma2_index);
    EXPECT_NEAR(a.best.energy_overhead, b.best.energy_overhead,
                1e-6 * b.best.energy_overhead);
    EXPECT_NEAR(a.best.time_overhead, b.best.time_overhead,
                1e-5 * b.best.time_overhead);
  }
}

TEST(ExactBackend, ExactOptMatchesFirstOrderInPaperRegime) {
  // §5.2 agreement through the engine path: at the paper's error rates
  // the exact-opt backend and the first-order closed forms pick the same
  // speed pair with energy overheads within 1%.
  ScenarioSpec exact = parse_scenario(
      "name=a config=Hera/XScale mode=exact-opt param=none rho=2");
  ScenarioSpec first = parse_scenario(
      "name=b config=Hera/XScale mode=first-order param=none rho=2");
  exact.overrides.push_back({"lambda", 1e-7});
  first.overrides.push_back({"lambda", 1e-7});
  const core::Solution a = solve_scenario(exact);
  const core::Solution b = solve_scenario(first);
  ASSERT_TRUE(a.feasible());
  ASSERT_TRUE(b.feasible());
  EXPECT_EQ(a.pair().sigma1_index, b.pair().sigma1_index);
  EXPECT_EQ(a.pair().sigma2_index, b.pair().sigma2_index);
  EXPECT_NEAR(a.energy_overhead(), b.energy_overhead(),
              1e-2 * b.energy_overhead());
}

TEST(ExactBackend, SpeedPairTablesRouteThroughTheCache) {
  // §4.2 tables in exact mode: the cached route agrees with the
  // uncached per-bound table.
  const ScenarioSpec spec = parse_scenario(
      "name=tables config=Hera/XScale mode=exact-opt param=none rho=3");
  const auto table = sweep::speed_pair_table(*prepared(spec), 3.0);
  const core::ClosedFormBackend uncached(spec.resolve_params(),
                                         core::EvalMode::kExactOptimize);
  const auto reference = sweep::speed_pair_table(uncached, 3.0);
  ASSERT_EQ(table.size(), reference.size());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    SCOPED_TRACE(i);
    ASSERT_EQ(table[i].feasible, reference[i].feasible);
    EXPECT_EQ(table[i].is_global_best, reference[i].is_global_best);
    if (!reference[i].feasible) continue;
    EXPECT_EQ(table[i].best_sigma2, reference[i].best_sigma2);
    EXPECT_NEAR(table[i].energy_overhead, reference[i].energy_overhead,
                1e-6 * reference[i].energy_overhead);
  }
}

TEST(ExactBackend, PointwiseSolveIsTheReportsBestWithoutTheReport) {
  // solve() scans the cache without materializing the K² report; its
  // result must still be the report's best (through the same min-ρ
  // fallback step), byte for byte, at every kind of bound.
  core::ExactOptBackend backend(exact_rho_spec().resolve_params());
  backend.prepare();
  const std::vector<double>& floors = backend.rho_mins();
  const std::vector<double>& loose = backend.times_at_we();
  // Per pair: just under its floor (infeasible for it), between its floor
  // and its loose threshold (a tight bisection), and past the threshold (a
  // cache lookup); plus a bound below every floor and one above every
  // threshold.
  std::vector<double> rhos;
  std::size_t tight = 0;
  double lowest = std::numeric_limits<double>::infinity();
  double highest = 0.0;
  for (std::size_t s = 0; s < floors.size(); ++s) {
    if (!(floors[s] > 0.0) || !std::isfinite(loose[s])) continue;
    lowest = std::min(lowest, floors[s]);
    highest = std::max(highest, loose[s]);
    rhos.push_back(floors[s] * (1.0 - 1e-9));
    if (floors[s] < loose[s]) {
      rhos.push_back(0.5 * (floors[s] + loose[s]));
      ++tight;
    }
    rhos.push_back(loose[s] * 1.01);
  }
  ASSERT_GT(tight, 0u);
  rhos.push_back(0.5 * lowest);
  rhos.push_back(2.0 * highest);

  std::size_t infeasible = 0;
  for (const core::SpeedPolicy policy :
       {core::SpeedPolicy::kTwoSpeed, core::SpeedPolicy::kSingleSpeed}) {
    const core::PairSolution fallback = backend.min_rho(policy).pair();
    for (const double rho : rhos) {
      const core::PairSolution best = backend.solve_report(rho, policy).best;
      infeasible += best.feasible ? 0 : 1;
      for (const bool min_rho_fallback : {false, true}) {
        SCOPED_TRACE(testing::Message() << "rho " << rho << " fallback "
                                        << min_rho_fallback);
        const core::Solution expected =
            !best.feasible && min_rho_fallback && fallback.feasible
                ? core::Solution::from_pair(fallback, true)
                : core::Solution::from_pair(best);
        EXPECT_EQ(store::serialize_solution(
                      backend.solve(rho, policy, min_rho_fallback)),
                  store::serialize_solution(expected));
      }
    }
  }
  EXPECT_GT(infeasible, 0u);
}

}  // namespace
}  // namespace rexspeed::engine
