// The backend registry: mode-name resolution, unknown-mode error text,
// every registered scenario resolving to a backend, and the regression
// pin that registry-built backends are bit-identical to driving the
// underlying solvers directly (the pre-redesign paths).

#include "rexspeed/engine/backend_registry.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "rexspeed/core/exact_solver.hpp"
#include "rexspeed/core/interleaved.hpp"
#include "rexspeed/core/recall_solver.hpp"
#include "test_util.hpp"

namespace rexspeed::engine {
namespace {

using test::expect_identical_interleaved;
using test::expect_identical_pair;

TEST(BackendRegistry, RegistersTheFiveModes) {
  const auto& registry = backend_registry();
  ASSERT_EQ(registry.size(), 5u);
  const char* expected[] = {"first-order", "exact-eval", "exact-opt",
                            "interleaved", "recall"};
  for (std::size_t i = 0; i < registry.size(); ++i) {
    EXPECT_EQ(registry[i].name, expected[i]);
    EXPECT_FALSE(registry[i].description.empty()) << registry[i].name;
    EXPECT_FALSE(registry[i].panel_axes.empty()) << registry[i].name;
    EXPECT_TRUE(static_cast<bool>(registry[i].factory))
        << registry[i].name;
  }
  // Pair backends sweep the six figure axes; the interleaved one sweeps
  // ρ and segments.
  EXPECT_EQ(backend_by_name("first-order").panel_axes.size(), 6u);
  EXPECT_EQ(backend_by_name("interleaved").panel_axes.size(), 2u);
  EXPECT_EQ(backend_by_name("recall").panel_axes.size(), 6u);
}

TEST(BackendRegistry, UnknownModeErrorNamesTheKnownModes) {
  EXPECT_EQ(find_backend("warp-drive"), nullptr);
  try {
    (void)backend_by_name("warp-drive");
    FAIL() << "unknown modes must throw";
  } catch (const std::invalid_argument& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("unknown mode 'warp-drive'"), std::string::npos)
        << message;
    EXPECT_NE(
        message.find(
            "first-order, exact-eval, exact-opt, interleaved or recall"),
        std::string::npos)
        << message;
  }
}

TEST(BackendRegistry, ModeNameFollowsTheSpec) {
  EXPECT_EQ(backend_mode_name(parse_scenario("config=Hera/XScale")),
            "first-order");
  EXPECT_EQ(
      backend_mode_name(parse_scenario("config=Hera/XScale mode=exact-eval")),
      "exact-eval");
  EXPECT_EQ(
      backend_mode_name(parse_scenario("config=Hera/XScale mode=exact-opt")),
      "exact-opt");
  // Segment keys select the interleaved backend whatever the EvalMode.
  EXPECT_EQ(
      backend_mode_name(parse_scenario("config=Hera/XScale segments=2")),
      "interleaved");
  EXPECT_EQ(backend_mode_name(
                parse_scenario("config=Hera/XScale mode=interleaved")),
            "interleaved");
  EXPECT_EQ(
      backend_mode_name(parse_scenario("config=Hera/XScale mode=recall")),
      "recall");
}

TEST(BackendRegistry, EveryRegisteredScenarioResolvesToABackend) {
  for (const ScenarioSpec& spec : scenario_registry()) {
    SCOPED_TRACE(spec.name);
    const auto backend = make_backend(spec);
    ASSERT_NE(backend, nullptr);
    EXPECT_EQ(backend->name(), backend_mode_name(spec));
    // Every axis the scenario could sweep is one its backend supports.
    if (spec.kind() != ScenarioKind::kSolve) {
      for (const auto axis : scenario_panel_axes(spec)) {
        EXPECT_TRUE(backend->capabilities().supports(axis))
            << sweep::to_string(axis);
      }
    }
  }
}

TEST(BackendRegistry, RegistryBackendsMatchThePreRedesignPathsBitForBit) {
  // The regression pin: for every registered scenario, the registry-built
  // backend reproduces the direct drive — BiCritSolver for the closed-form
  // and recall modes, a directly built and prepared ExactOptBackend /
  // InterleavedBackend for the cached modes — bit for bit at the
  // scenario's own bound.
  for (const ScenarioSpec& spec : scenario_registry()) {
    SCOPED_TRACE(spec.name);
    const core::ModelParams params = spec.resolve_params();
    auto backend = make_backend(spec, params);
    backend->prepare();
    const core::Solution via_registry =
        backend->solve(spec.rho, spec.policy, spec.min_rho_fallback);

    if (spec.interleaved()) {
      core::InterleavedBackend direct(params, spec.segment_limit());
      direct.prepare();
      expect_identical_interleaved(
          via_registry.interleaved(),
          spec.segments > 0
              ? direct.solve_segments(spec.rho, spec.segments).interleaved()
              : direct.solve(spec.rho, spec.policy, false).interleaved());
      continue;
    }
    if (spec.recall_mode) {
      // The recall backend is first-order over the recall-scaled rate.
      const core::BiCritSolver direct(core::recall_effective_params(
          params, spec.verification_recall));
      core::PairSolution expected =
          direct.solve(spec.rho, spec.policy, core::EvalMode::kFirstOrder)
              .best;
      if (!expected.feasible && spec.min_rho_fallback &&
          direct.min_rho_solution(spec.policy).feasible) {
        expected = direct.min_rho_solution(spec.policy);
      }
      expect_identical_pair(via_registry.pair(), expected);
      continue;
    }
    if (spec.mode == core::EvalMode::kExactOptimize) {
      core::ExactOptBackend direct(params);
      direct.prepare();
      core::PairSolution expected =
          direct.solve_report(spec.rho, spec.policy).best;
      if (!expected.feasible && spec.min_rho_fallback &&
          direct.min_rho(spec.policy).feasible()) {
        expected = direct.min_rho(spec.policy).pair();
      }
      expect_identical_pair(via_registry.pair(), expected);
      continue;
    }
    const core::BiCritSolver direct(params);
    core::PairSolution expected =
        direct.solve(spec.rho, spec.policy, spec.mode).best;
    if (!expected.feasible && spec.min_rho_fallback &&
        direct.min_rho_solution(spec.policy).feasible) {
      expected = direct.min_rho_solution(spec.policy);
    }
    expect_identical_pair(via_registry.pair(), expected);
  }
}

TEST(BackendRegistry, PreparedScenarioBackendSolvesDirectly) {
  // Point solves start from make_backend + prepare: the backend arrives
  // ready whatever it defers (the exact cache here).
  const ScenarioSpec spec = parse_scenario(
      "name=ctx config=Hera/XScale mode=exact-opt param=none rho=2");
  const auto backend = make_backend(spec);
  EXPECT_TRUE(backend->needs_prepare());
  backend->prepare();
  EXPECT_FALSE(backend->needs_prepare());
  EXPECT_TRUE(backend->solve(2.0, spec.policy).feasible());
}

TEST(BackendRegistry, SimulateOnlyDimensionsAreRejectedAtTheChokepoint) {
  ScenarioSpec spec = parse_scenario(
      "name=recall config=Hera/XScale verification_recall=0.5");
  try {
    (void)make_backend(spec);
    FAIL() << "partial recall must not reach a full-recall backend";
  } catch (const std::invalid_argument& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("verification_recall=0.5"), std::string::npos)
        << message;
    EXPECT_NE(message.find("'first-order'"), std::string::npos) << message;
    EXPECT_NE(message.find("mode=recall"), std::string::npos) << message;
    EXPECT_NE(message.find("rexspeed simulate"), std::string::npos)
        << message;
  }
  // The same spec in recall mode resolves cleanly.
  spec = parse_scenario(
      "name=recall config=Hera/XScale mode=recall verification_recall=0.5");
  EXPECT_NE(make_backend(spec), nullptr);
}

TEST(BackendRegistry, InterleavedFactoryHonorsSegmentConfiguration) {
  const ScenarioSpec pinned =
      parse_scenario("config=Hera/XScale rho=5 segments=3 lambda=1e-3 V=1");
  auto backend = make_backend(pinned);
  backend->prepare();
  EXPECT_EQ(backend->capabilities().max_segments, 3u);
  const core::Solution solution =
      backend->solve(pinned.rho, pinned.policy, false);
  ASSERT_TRUE(solution.feasible());
  EXPECT_EQ(solution.segments(), 3u);
}

}  // namespace
}  // namespace rexspeed::engine
