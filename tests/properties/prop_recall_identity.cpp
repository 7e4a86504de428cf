// Property: at r = 1 the recall mode IS the first-order mode, bit for
// bit — for ANY model and bound. Scaling the silent rate by 1.0 is an
// exact floating-point identity, so mode=recall at full recall must
// reproduce mode=first-order on every entry point: solve, baseline,
// min-ρ, the §4.2 pair table, panel points and the batched ρ path. This is
// the acceptance anchor that makes the recall mode a strict extension
// rather than a fork.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "rexspeed/core/solver_backend.hpp"
#include "support/proptest.hpp"
#include "test_util.hpp"

namespace rexspeed::core {
namespace {

struct IdentityCase {
  ModelParams params;
  std::vector<double> rhos;
};

struct IdentityCaseGen {
  using Value = IdentityCase;
  proptest::ModelParamsGen params_gen;
  proptest::RhoGridGen grid_gen{2, 12};

  IdentityCase operator()(proptest::Rng& rng) const {
    return {params_gen(rng), grid_gen(rng)};
  }
  std::vector<IdentityCase> shrink(const IdentityCase& value) const {
    std::vector<IdentityCase> out;
    for (const auto& params : params_gen.shrink(value.params)) {
      out.push_back({params, value.rhos});
    }
    for (const auto& rhos : grid_gen.shrink(value.rhos)) {
      out.push_back({value.params, rhos});
    }
    return out;
  }
  std::string describe(const IdentityCase& value) const {
    return params_gen.describe(value.params) + " | rhos " +
           grid_gen.describe(value.rhos);
  }
};

TEST(PropRecallIdentity, FullRecallBackendEqualsFirstOrderBitForBit) {
  proptest::PropOptions options;
  options.iterations = 100;
  proptest::check(
      "recall mode (r=1) == first-order mode, bit for bit",
      IdentityCaseGen{},
      [](const IdentityCase& c) {
        const ClosedFormBackend recall(c.params, /*recall=*/1.0);
        const ClosedFormBackend reference(c.params, EvalMode::kFirstOrder);
        EXPECT_STREQ(recall.name(), "recall");
        // Scaled-by-1.0 params are the SAME params, exactly.
        EXPECT_EQ(recall.solver().params().lambda_silent,
                  c.params.lambda_silent);

        test::expect_identical_solution(
            recall.min_rho(SpeedPolicy::kTwoSpeed),
            reference.min_rho(SpeedPolicy::kTwoSpeed));
        for (const double rho : c.rhos) {
          SCOPED_TRACE("rho " + std::to_string(rho));
          test::expect_identical_solution(
              recall.solve(rho, SpeedPolicy::kTwoSpeed, true),
              reference.solve(rho, SpeedPolicy::kTwoSpeed, true));
          test::expect_identical_solution(recall.solve_baseline(rho, true),
                                          reference.solve_baseline(rho, true));
        }
        // The §4.2 pair table.
        const double rho = c.rhos.front();
        for (std::size_t i = 0; i < c.params.speeds.size(); ++i) {
          for (std::size_t j = i; j < c.params.speeds.size(); ++j) {
            test::expect_identical_pair(recall.solve_pair(rho, i, j),
                                        reference.solve_pair(rho, i, j));
          }
        }
        // The batched ρ path the sweep engine uses.
        std::vector<PanelPoint> via_recall(c.rhos.size());
        std::vector<PanelPoint> via_reference(c.rhos.size());
        recall.solve_batch(SweepAxis::kPerformanceBound, c.rhos.data(),
                           c.rhos.size(), rho, true, via_recall.data());
        reference.solve_batch(SweepAxis::kPerformanceBound, c.rhos.data(),
                              c.rhos.size(), rho, true,
                              via_reference.data());
        for (std::size_t i = 0; i < c.rhos.size(); ++i) {
          test::expect_identical_solution(via_recall[i].primary,
                                          via_reference[i].primary);
          test::expect_identical_solution(via_recall[i].baseline,
                                          via_reference[i].baseline);
        }
      },
      options);
}

TEST(PropRecallIdentity, RebindPreservesTheRecallSetting) {
  proptest::PropOptions options;
  options.iterations = 50;
  proptest::check(
      "rebind keeps r; params() reports the unscaled model",
      proptest::ModelParamsGen{},
      [](const ModelParams& params) {
        const double r = 0.8;
        const ClosedFormBackend backend(params, r);
        // The panel rebind flow feeds params() back through rebind — the
        // backend must report the ORIGINAL rates so the recall scaling is
        // applied once, not squared.
        EXPECT_EQ(backend.params().lambda_silent, params.lambda_silent);
        EXPECT_EQ(backend.solver().params().lambda_silent,
                  r * params.lambda_silent);
        const auto rebound = backend.rebind(backend.params());
        const auto* typed =
            dynamic_cast<const ClosedFormBackend*>(rebound.get());
        ASSERT_NE(typed, nullptr);
        EXPECT_STREQ(typed->name(), "recall");
        EXPECT_EQ(typed->capabilities().version, "recall-1");
        EXPECT_EQ(typed->params().lambda_silent, params.lambda_silent);
        EXPECT_EQ(typed->solver().params().lambda_silent,
                  r * params.lambda_silent);
        test::expect_identical_solution(
            rebound->solve(3.0, SpeedPolicy::kTwoSpeed, true),
            backend.solve(3.0, SpeedPolicy::kTwoSpeed, true));
      },
      options);
}

}  // namespace
}  // namespace rexspeed::core
