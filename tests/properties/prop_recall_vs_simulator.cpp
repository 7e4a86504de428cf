// Property: the partial-recall closed forms are the truth of the
// partial-recall simulator — for ANY model, ANY recall r and the recall
// solver's own chosen policy, the simulated time/energy overheads and the
// committed-corruption rate match core::expected_time_recall /
// expected_energy_recall / recall_corruption_probability within the shared
// Welford-stderr tolerance. This is the property-test side of the pinned
// r ∈ {0.5, 0.8, 0.95} regression in tests/sim/test_verification_recall.cpp.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "rexspeed/core/recall_solver.hpp"
#include "rexspeed/core/solver_backend.hpp"
#include "support/crossval.hpp"
#include "support/proptest.hpp"

namespace rexspeed::core {
namespace {

struct RecallCase {
  ModelParams params;
  double rho = 3.0;
  double recall = 0.8;
};

struct RecallCaseGen {
  using Value = RecallCase;
  proptest::ModelParamsGen params_gen;
  proptest::RhoGen rho_gen;

  RecallCase operator()(proptest::Rng& rng) const {
    RecallCase c{params_gen(rng), rho_gen(rng), 0.0};
    // Bias toward the acceptance grid, cover the full range too (r = 0 is
    // the every-miss extreme, r = 1 the paper's guaranteed verification).
    if (rng.chance(0.5)) {
      const double grid[] = {0.0, 0.5, 0.8, 0.95, 1.0};
      c.recall = grid[rng.index(5)];
    } else {
      c.recall = rng.uniform();
    }
    return c;
  }
  std::vector<RecallCase> shrink(const RecallCase& value) const {
    std::vector<RecallCase> out;
    for (const auto& params : params_gen.shrink(value.params)) {
      out.push_back({params, value.rho, value.recall});
    }
    for (const double rho : rho_gen.shrink(value.rho)) {
      out.push_back({value.params, rho, value.recall});
    }
    if (value.recall != 1.0) {
      out.push_back({value.params, value.rho, 1.0});
    }
    return out;
  }
  std::string describe(const RecallCase& value) const {
    return params_gen.describe(value.params) + " rho=" +
           std::to_string(value.rho) + " recall=" +
           std::to_string(value.recall);
  }
};

TEST(PropRecallVsSimulator, ClosedFormsMatchTheSimulatorAtAnyRecall) {
  proptest::PropOptions options;
  options.iterations = 25;  // each case pays a small Monte-Carlo run
  test::CrossValOptions mc;
  mc.replications = 60;
  mc.patterns_per_replication = 25.0;
  mc.sigmas = 6.0;      // see prop_backend_vs_simulator on both widenings
  mc.rel_slack = 0.02;  // random models reach unobservably-rare branches
  proptest::check(
      "recall expectations and corruption probability match the simulator",
      RecallCaseGen{},
      [mc](const RecallCase& c) {
        const ClosedFormBackend backend(c.params, c.recall);
        const BiCritSolution sol =
            backend.solve_report(c.rho, SpeedPolicy::kTwoSpeed);
        if (!sol.best.feasible) return;
        test::expect_simulator_matches_recall_model(
            c.params, c.recall, sol.best.w_opt, sol.best.sigma1,
            sol.best.sigma2, mc);
      },
      options);
}

TEST(PropRecallVsSimulator, CorruptionProbabilityIsAProbability) {
  proptest::PropOptions options;
  options.iterations = 200;  // pure closed-form checks, no simulation
  proptest::check(
      "0 <= P_corrupt <= 1, zero at r=1, and recall-exact >= error-free "
      "overheads",
      RecallCaseGen{},
      [](const RecallCase& c) {
        const double w = 500.0;
        const double s1 = c.params.speeds.front();
        const double s2 = c.params.speeds.back();
        const double p =
            recall_corruption_probability(c.params, c.recall, w, s1, s2);
        EXPECT_GE(p, 0.0);
        EXPECT_LE(p, 1.0);
        EXPECT_EQ(recall_corruption_probability(c.params, 1.0, w, s1, s2),
                  0.0);
        // A pattern can never finish faster than one full error-free
        // attempt at the FASTER speed plus the checkpoint. (The σ1 span is
        // NOT a floor: a fail-stop can preempt the slow first attempt and
        // the re-execution runs at σ2.)
        const double floor_t =
            (w + c.params.verification_s) / std::max(s1, s2) +
            c.params.checkpoint_s;
        EXPECT_GE(expected_time_recall(c.params, c.recall, w, s1, s2),
                  floor_t * (1.0 - 1e-12));
      },
      options);
}

}  // namespace
}  // namespace rexspeed::core
