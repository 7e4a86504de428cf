// Property: the feasibility window behaves like a window — for ANY model,
// a feasible bound stays feasible when loosened, the reported pattern-size
// window brackets the optimum, the min-ρ fallback engages exactly when the
// bound is unachievable, and the backends that share Theorem 1's window
// (first-order, exact-eval, recall at r = 1) agree on feasibility at every
// bound.

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "rexspeed/core/solver_backend.hpp"
#include "support/proptest.hpp"

namespace rexspeed::core {
namespace {

struct WindowCase {
  ModelParams params;
  double rho = 3.0;
};

struct WindowCaseGen {
  using Value = WindowCase;
  proptest::ModelParamsGen params_gen;
  proptest::RhoGen rho_gen;

  WindowCase operator()(proptest::Rng& rng) const {
    return {params_gen(rng), rho_gen(rng)};
  }
  std::vector<WindowCase> shrink(const WindowCase& value) const {
    std::vector<WindowCase> out;
    for (const auto& params : params_gen.shrink(value.params)) {
      out.push_back({params, value.rho});
    }
    for (const double rho : rho_gen.shrink(value.rho)) {
      out.push_back({value.params, rho});
    }
    return out;
  }
  std::string describe(const WindowCase& value) const {
    return params_gen.describe(value.params) + " rho=" +
           std::to_string(value.rho);
  }
};

TEST(PropFeasibilityWindow, LooseningTheBoundNeverLosesFeasibility) {
  proptest::PropOptions options;
  options.iterations = 100;
  proptest::check(
      "feasible at rho => feasible at every looser bound; w_min <= w_opt "
      "<= w_max",
      WindowCaseGen{},
      [](const WindowCase& c) {
        const ClosedFormBackend backend(c.params, EvalMode::kFirstOrder);
        bool was_feasible = false;
        for (const double scale : {1.0, 1.3, 2.0, 4.0}) {
          SCOPED_TRACE("rho scale " + std::to_string(scale));
          const Solution sol =
              backend.solve(c.rho * scale, SpeedPolicy::kTwoSpeed, false);
          if (was_feasible) EXPECT_TRUE(sol.feasible());
          was_feasible = was_feasible || sol.feasible();
          if (sol.feasible()) {
            EXPECT_LE(sol.pair().w_min, sol.pair().w_opt);
            EXPECT_LE(sol.pair().w_opt, sol.pair().w_max);
            EXPECT_GT(sol.pair().w_opt, 0.0);
          }
        }
      },
      options);
}

TEST(PropFeasibilityWindow, FallbackEngagesExactlyWhenTheBoundFails) {
  proptest::PropOptions options;
  options.iterations = 100;
  proptest::check(
      "used_fallback <=> (bound infeasible && min_rho feasible)",
      WindowCaseGen{},
      [](const WindowCase& c) {
        const ClosedFormBackend backend(c.params, EvalMode::kFirstOrder);
        const Solution strict =
            backend.solve(c.rho, SpeedPolicy::kTwoSpeed, false);
        const Solution relaxed =
            backend.solve(c.rho, SpeedPolicy::kTwoSpeed, true);
        const Solution min_rho = backend.min_rho(SpeedPolicy::kTwoSpeed);
        if (strict.feasible()) {
          // A feasible bound never takes the fallback.
          EXPECT_FALSE(relaxed.used_fallback);
          EXPECT_EQ(relaxed.pair().w_opt, strict.pair().w_opt);
        } else {
          EXPECT_EQ(relaxed.used_fallback, min_rho.feasible());
          if (min_rho.feasible()) {
            EXPECT_EQ(relaxed.pair().w_opt, min_rho.pair().w_opt);
            EXPECT_EQ(relaxed.pair().sigma1, min_rho.pair().sigma1);
            EXPECT_EQ(relaxed.pair().sigma2, min_rho.pair().sigma2);
          }
        }
      },
      options);
}

TEST(PropFeasibilityWindow, TheoremOneBackendsAgreeOnFeasibility) {
  proptest::PropOptions options;
  options.iterations = 100;
  proptest::check(
      "first-order, exact-eval and recall@r=1 share one feasibility window",
      WindowCaseGen{},
      [](const WindowCase& c) {
        const ClosedFormBackend first_order(c.params, EvalMode::kFirstOrder);
        const ClosedFormBackend exact_eval(c.params,
                                           EvalMode::kExactEvaluation);
        const ClosedFormBackend recall(c.params, /*recall=*/1.0);
        for (const double scale : {1.0, 2.5}) {
          SCOPED_TRACE("rho scale " + std::to_string(scale));
          const double rho = c.rho * scale;
          const bool fo =
              first_order.solve(rho, SpeedPolicy::kTwoSpeed, false)
                  .feasible();
          EXPECT_EQ(
              exact_eval.solve(rho, SpeedPolicy::kTwoSpeed, false)
                  .feasible(),
              fo);
          EXPECT_EQ(
              recall.solve(rho, SpeedPolicy::kTwoSpeed, false).feasible(),
              fo);
        }
      },
      options);
}

}  // namespace
}  // namespace rexspeed::core
