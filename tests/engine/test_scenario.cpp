#include "rexspeed/engine/scenario.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "rexspeed/engine/backend_registry.hpp"
#include "rexspeed/platform/configuration.hpp"
#include "test_util.hpp"

namespace rexspeed::engine {
namespace {

TEST(ScenarioParse, StructuralKeys) {
  const ScenarioSpec spec = parse_scenario(
      "name=demo config=Atlas/Crusoe rho=2.5 points=21 param=C "
      "policy=single-speed mode=exact-eval fallback=0");
  EXPECT_EQ(spec.name, "demo");
  EXPECT_EQ(spec.configuration, "Atlas/Crusoe");
  EXPECT_DOUBLE_EQ(spec.rho, 2.5);
  EXPECT_EQ(spec.points, 21u);
  ASSERT_TRUE(spec.sweep_parameter.has_value());
  EXPECT_EQ(*spec.sweep_parameter, sweep::SweepParameter::kCheckpointTime);
  EXPECT_EQ(spec.policy, core::SpeedPolicy::kSingleSpeed);
  EXPECT_EQ(spec.mode, core::EvalMode::kExactEvaluation);
  EXPECT_FALSE(spec.min_rho_fallback);
  EXPECT_EQ(spec.kind(), ScenarioKind::kSweep);
}

TEST(ScenarioParse, DefaultsAreASolveOnHeraXScale) {
  const ScenarioSpec spec = parse_scenario("");
  EXPECT_EQ(spec.configuration, "Hera/XScale");
  EXPECT_DOUBLE_EQ(spec.rho, 3.0);
  EXPECT_EQ(spec.kind(), ScenarioKind::kSolve);
  EXPECT_TRUE(spec.min_rho_fallback);
}

TEST(ScenarioParse, ParamAllAndNone) {
  EXPECT_EQ(parse_scenario("param=all").kind(), ScenarioKind::kAllSweeps);
  EXPECT_EQ(parse_scenario("param=rho param=none").kind(),
            ScenarioKind::kSolve);
  EXPECT_EQ(parse_scenario("param=all param=V").kind(),
            ScenarioKind::kSweep);
}

TEST(ScenarioParse, OverridesResolveIntoModelParams) {
  const ScenarioSpec spec =
      parse_scenario("config=Hera/XScale V=123 lambda=1e-5 Pio=77");
  const core::ModelParams params = spec.resolve_params();
  EXPECT_DOUBLE_EQ(params.verification_s, 123.0);
  EXPECT_DOUBLE_EQ(params.lambda_silent, 1e-5);
  EXPECT_DOUBLE_EQ(params.io_power_mw, 77.0);
  // Untouched fields keep the configuration's values.
  const core::ModelParams base = test::params_for("Hera/XScale");
  EXPECT_DOUBLE_EQ(params.checkpoint_s, base.checkpoint_s);
  EXPECT_EQ(params.speeds, base.speeds);
}

TEST(ScenarioParse, RejectsMalformedInput) {
  EXPECT_THROW(parse_scenario("rho"), std::invalid_argument);
  EXPECT_THROW(parse_scenario("=3"), std::invalid_argument);
  EXPECT_THROW(parse_scenario("rho=abc"), std::invalid_argument);
  EXPECT_THROW(parse_scenario("param=bogus"), std::invalid_argument);
  EXPECT_THROW(parse_scenario("policy=warp"), std::invalid_argument);
  EXPECT_THROW(parse_scenario("mode=psychic"), std::invalid_argument);
  EXPECT_THROW(parse_scenario("unknown_key=1"), std::invalid_argument);
  EXPECT_THROW(parse_scenario("points=0"), std::invalid_argument);
  // A non-positive bound must fail at parse time, not inside a pool
  // worker (which would terminate the process).
  EXPECT_THROW(parse_scenario("rho=0"), std::invalid_argument);
  EXPECT_THROW(parse_scenario("rho=-1"), std::invalid_argument);
  EXPECT_THROW(parse_scenario("rho=nan"), std::invalid_argument);
  EXPECT_THROW(parse_scenario("rho=inf"), std::invalid_argument);
  // fallback accepts only 0/1/true/false — "anything else means true"
  // would turn typos into the opposite policy.
  EXPECT_THROW(parse_scenario("fallback=off"), std::invalid_argument);
  EXPECT_THROW(parse_scenario("fallback=flase"), std::invalid_argument);
  EXPECT_FALSE(parse_scenario("fallback=false").min_rho_fallback);
  EXPECT_TRUE(parse_scenario("fallback=true").min_rho_fallback);
}

TEST(ScenarioParse, OverrideValidationFailsAtResolveTimeForBadValues) {
  // A negative cost parses (it is a well-formed number) but must be
  // rejected by ModelParams::validate when the scenario is resolved.
  const ScenarioSpec spec = parse_scenario("config=Hera/XScale C=-5");
  EXPECT_THROW(spec.resolve_params(), std::invalid_argument);
}

TEST(ScenarioRegistry, CoversThePaperFiguresAndBackendExtensions) {
  const auto& registry = scenario_registry();
  ASSERT_EQ(registry.size(), 17u);
  EXPECT_EQ(registry.front().name, "fig02");
  int panels = 0;
  int composites = 0;
  int interleaved = 0;
  for (const auto& spec : registry) {
    ASSERT_FALSE(spec.description.empty()) << spec.name;
    // Every registered configuration must actually exist.
    EXPECT_NO_THROW(platform::configuration_by_name(spec.configuration))
        << spec.name;
    if (spec.interleaved()) {
      ++interleaved;
      continue;
    }
    if (spec.kind() == ScenarioKind::kSweep) ++panels;
    if (spec.kind() == ScenarioKind::kAllSweeps) ++composites;
  }
  EXPECT_EQ(panels, 8);       // Figs 2–7 + the exact and recall rho panels
  EXPECT_EQ(composites, 7);   // Figures 8–14
  EXPECT_EQ(interleaved, 2);  // the related-work extension panels

  // The exact-backend workload keeps its natural shared-cache panel.
  const ScenarioSpec& exact = scenario_by_name("exact_rho");
  EXPECT_EQ(exact.mode, core::EvalMode::kExactOptimize);
  EXPECT_EQ(exact.sweep_parameter,
            sweep::SweepParameter::kPerformanceBound);

  // The interleaved extensions are well-formed: a best-m ρ sweep and an
  // overhead-vs-segments grid, both with a search cap.
  const ScenarioSpec& vs_rho = scenario_by_name("interleaved_rho");
  EXPECT_EQ(vs_rho.sweep_parameter,
            sweep::SweepParameter::kPerformanceBound);
  EXPECT_EQ(vs_rho.max_segments, 8u);
  EXPECT_NO_THROW(vs_rho.validate());
  const ScenarioSpec& vs_m = scenario_by_name("interleaved_segments");
  EXPECT_EQ(vs_m.sweep_parameter, sweep::SweepParameter::kSegments);
  EXPECT_EQ(vs_m.max_segments, 8u);
  EXPECT_NO_THROW(vs_m.validate());

  // The partial-recall extension panel is a recall-mode ρ sweep.
  const ScenarioSpec& recall = scenario_by_name("recall_rho");
  EXPECT_TRUE(recall.recall_mode);
  EXPECT_EQ(recall.verification_recall, 0.8);
  EXPECT_EQ(recall.sweep_parameter, sweep::SweepParameter::kPerformanceBound);
  EXPECT_NO_THROW(recall.validate());
}

TEST(ScenarioRegistry, LookupByName) {
  EXPECT_EQ(scenario_by_name("fig05").sweep_parameter,
            sweep::SweepParameter::kPerformanceBound);
  EXPECT_EQ(find_scenario("fig99"), nullptr);
  EXPECT_THROW(scenario_by_name("fig99"), std::out_of_range);
}

TEST(ScenarioSolve, MatchesDirectBackendSolve) {
  const ScenarioSpec spec = parse_scenario("config=Hera/XScale rho=3");
  const core::Solution via_scenario = solve_scenario(spec);
  const core::PairSolution direct =
      test::prepared(make_backend(spec))->solve(3.0).pair();
  ASSERT_TRUE(via_scenario.feasible());
  EXPECT_EQ(via_scenario.sigma1(), direct.sigma1);
  EXPECT_EQ(via_scenario.sigma2(), direct.sigma2);
  EXPECT_EQ(via_scenario.w_opt(), direct.w_opt);
  EXPECT_EQ(via_scenario.energy_overhead(), direct.energy_overhead);
}

TEST(ScenarioSolve, ReportsFallbackUse) {
  const ScenarioSpec spec = parse_scenario("config=Atlas/Crusoe rho=1.0");
  const core::Solution sol = solve_scenario(spec);
  EXPECT_TRUE(sol.feasible());
  EXPECT_TRUE(sol.used_fallback);
}

TEST(ScenarioRecall, ParsesValidatesAndRoutesToTheSimulator) {
  // verification_recall= is a validated scenario key, routed into
  // SimulatorOptions — the simulate-only contract.
  const ScenarioSpec spec = parse_scenario(
      "config=Hera/XScale verification_recall=0.8");
  EXPECT_DOUBLE_EQ(spec.verification_recall, 0.8);
  EXPECT_DOUBLE_EQ(simulator_options(spec).verification_recall, 0.8);
  EXPECT_DOUBLE_EQ(
      simulator_options(parse_scenario("config=Hera/XScale"))
          .verification_recall,
      1.0);

  EXPECT_THROW(parse_scenario("verification_recall=1.5"),
               std::invalid_argument);
  EXPECT_THROW(parse_scenario("verification_recall=-0.1"),
               std::invalid_argument);
  EXPECT_THROW(parse_scenario("verification_recall=maybe"),
               std::invalid_argument);
}

TEST(ScenarioRecall, FullRecallModesRejectPartialRecallWithAClearError) {
  // Only mode=recall models partial recall analytically: every other
  // solver entry point refuses, naming the key and both escape hatches
  // (the recall backend and the simulator).
  ScenarioSpec spec = parse_scenario(
      "name=sdc config=Hera/XScale verification_recall=0.9");
  try {
    (void)solve_scenario(spec);
    FAIL() << "partial recall must be rejected by full-recall modes";
  } catch (const std::invalid_argument& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("verification_recall"), std::string::npos)
        << message;
    EXPECT_NE(message.find("mode=recall"), std::string::npos) << message;
    EXPECT_NE(message.find("simulate"), std::string::npos) << message;
  }
  // ...but the simulator bridge still accepts the spec's other settings.
  spec.verification_recall = 1.0;
  EXPECT_TRUE(solve_scenario(spec).feasible());
}

TEST(ScenarioRecall, RecallModeSolvesAndRoundTripsThroughTokens) {
  // mode=recall is a first-class solver mode: it parses, solves, and the
  // canonical token form round-trips (mode=recall pins EvalMode to
  // first-order so write/parse is lossless).
  const ScenarioSpec spec = parse_scenario(
      "name=sdc config=Hera/XScale mode=recall verification_recall=0.9 "
      "rho=3");
  EXPECT_TRUE(spec.recall_mode);
  EXPECT_EQ(spec.mode, core::EvalMode::kFirstOrder);
  EXPECT_TRUE(solve_scenario(spec).feasible());
  // A later mode token turns recall mode back off (last-wins semantics).
  EXPECT_FALSE(parse_scenario("config=Hera/XScale mode=recall "
                              "mode=first-order")
                   .recall_mode);
  // Recall mode is a speed-pair backend: segments are rejected.
  EXPECT_THROW(parse_scenario("config=Hera/XScale mode=recall segments=2"),
               std::invalid_argument);
  // solve_for_simulation keeps the recall-aware optimum rather than
  // stripping the key the way full-recall modes do.
  const core::Solution recall_solve = solve_for_simulation(spec);
  const core::Solution via_solver = solve_scenario(spec);
  EXPECT_EQ(recall_solve.w_opt(), via_solver.w_opt());
  EXPECT_EQ(recall_solve.sigma1(), via_solver.sigma1());
}

TEST(ScenarioRecall, MakePolicyAcceptsSimulateOnlySpecs) {
  // make_policy is the simulator bridge: a recall < 1 spec must yield the
  // same policy as its full-recall twin (recall shapes the simulation,
  // never the solve).
  ScenarioSpec spec = parse_scenario("config=Hera/XScale rho=3");
  ScenarioSpec partial = spec;
  partial.verification_recall = 0.8;
  const sim::ExecutionPolicy reference = make_policy(spec);
  const sim::ExecutionPolicy bridged = make_policy(partial);
  EXPECT_DOUBLE_EQ(bridged.pattern_work(), reference.pattern_work());
  ASSERT_EQ(bridged.attempt_speeds().size(),
            reference.attempt_speeds().size());
  EXPECT_DOUBLE_EQ(bridged.attempt_speeds()[0],
                   reference.attempt_speeds()[0]);
  EXPECT_DOUBLE_EQ(simulator_options(partial).verification_recall, 0.8);
}

TEST(ScenarioPolicy, BuildsSimulatorPolicyFromSolution) {
  const ScenarioSpec spec = parse_scenario("config=Hera/XScale rho=3");
  const sim::ExecutionPolicy policy = make_policy(spec);
  const core::Solution sol = solve_scenario(spec);
  EXPECT_DOUBLE_EQ(policy.pattern_work(), sol.w_opt());
  ASSERT_EQ(policy.attempt_speeds().size(), 2u);
  EXPECT_DOUBLE_EQ(policy.attempt_speeds()[0], sol.sigma1());
  EXPECT_DOUBLE_EQ(policy.attempt_speeds()[1], sol.sigma2());
}

TEST(ScenarioPolicy, ThrowsWhenInfeasibleAndFallbackDisabled) {
  const ScenarioSpec spec =
      parse_scenario("config=Atlas/Crusoe rho=1.0 fallback=0");
  EXPECT_THROW(make_policy(spec), std::runtime_error);
}

TEST(ScenarioSweepOptions, CarryTheSpecSettings) {
  const ScenarioSpec spec = parse_scenario(
      "rho=2.25 points=33 mode=exact-eval fallback=0 param=V");
  sweep::ThreadPool pool(2);
  const sweep::SweepOptions options = spec.sweep_options(&pool);
  EXPECT_DOUBLE_EQ(options.rho, 2.25);
  EXPECT_FALSE(options.min_rho_fallback);
  EXPECT_EQ(options.pool, &pool);
}

}  // namespace
}  // namespace rexspeed::engine
