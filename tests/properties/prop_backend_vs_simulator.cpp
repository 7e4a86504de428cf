// Property: every registered solver backend tells the truth — for ANY
// scenario the registry can build, executing the backend's chosen policy
// in the Monte-Carlo simulator reproduces the model expectations for that
// policy within the shared Welford-stderr tolerance. Pair policies are
// checked against the exact pattern expectations, segmented policies
// against the interleaved closed forms, and recall-mode policies against
// the recall-exact forms (the first-order backends OPTIMIZE with
// approximate coefficients, but the policy they return must still behave
// as the exact model predicts — that is what makes their output usable).

#include <gtest/gtest.h>

#include <memory>

#include "rexspeed/engine/backend_registry.hpp"
#include "rexspeed/engine/scenario.hpp"
#include "support/crossval.hpp"
#include "support/proptest.hpp"

namespace rexspeed::engine {
namespace {

TEST(PropBackendVsSimulator, ChosenPolicyMatchesTheExactModel) {
  proptest::PropOptions options;
  options.iterations = 25;  // each case pays a small Monte-Carlo run
  test::CrossValOptions mc;
  mc.replications = 60;
  mc.patterns_per_replication = 25.0;
  // Wider interval than the pinned cross-validation suites: this property
  // evaluates thousands of (case × metric) combinations under
  // REXSPEED_PROP_ITERS=1000, so the family-wise false-alarm budget is
  // spent much faster.
  mc.sigmas = 6.0;
  // Random models roam into arbitrarily-rare-event regimes where a retry
  // branch with probability ≲ sigmas/total_patterns can stay entirely
  // unobserved (stderr 0) while biasing the model by up to a few such
  // event probabilities relative — widen the slack accordingly. The
  // pinned cross-validation suites keep the tight default; real formula
  // errors are far above 2% whenever their branch is actually sampled.
  mc.rel_slack = 0.02;
  proptest::check(
      "simulating the backend's policy reproduces the exact expectations",
      proptest::ScenarioSpecGen{},
      [mc](const ScenarioSpec& spec) {
        const core::ModelParams params = spec.resolve_params();
        auto backend = make_backend(spec, params);
        backend->prepare();
        const core::Solution sol =
            backend->solve(spec.rho, spec.policy, spec.min_rho_fallback);
        if (!sol.feasible()) return;  // nothing to execute

        if (sol.kind() == core::SolutionKind::kInterleaved) {
          test::expect_simulator_matches_interleaved_model(
              params, sol.w_opt(), sol.segments(), sol.sigma1(),
              sol.sigma2(), mc);
          return;
        }
        if (spec.recall_mode && spec.verification_recall < 1.0) {
          test::expect_simulator_matches_recall_model(
              params, spec.verification_recall, sol.w_opt(), sol.sigma1(),
              sol.sigma2(), mc);
          return;
        }
        test::expect_simulator_matches_pair_model(params, sol.w_opt(),
                                                  sol.sigma1(), sol.sigma2(),
                                                  mc);
      },
      options);
}

}  // namespace
}  // namespace rexspeed::engine
