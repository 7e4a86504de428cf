// Property: widening the interleaved segment-count search can only help —
// for ANY silent-error model and bound, the best energy overhead under cap
// M is non-increasing in M, and the capped search equals the minimum over
// the pinned per-count solves (the search IS exhaustive enumeration, never
// a heuristic that skips a count).

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "rexspeed/core/solver_backend.hpp"
#include "support/proptest.hpp"
#include "test_util.hpp"

namespace rexspeed::core {
namespace {

struct SegmentsCase {
  ModelParams params;
  double rho = 3.0;
  unsigned cap = 4;
};

struct SegmentsCaseGen {
  using Value = SegmentsCase;
  proptest::ModelParamsGen params_gen{false};  // interleaved: λf = 0
  proptest::RhoGen rho_gen;
  proptest::SegmentCapGen cap_gen;

  SegmentsCase operator()(proptest::Rng& rng) const {
    return {params_gen(rng), rho_gen(rng), cap_gen(rng)};
  }
  std::vector<SegmentsCase> shrink(const SegmentsCase& value) const {
    std::vector<SegmentsCase> out;
    for (auto& params : params_gen.shrink(value.params)) {
      params.lambda_failstop = 0.0;
      out.push_back({params, value.rho, value.cap});
    }
    for (const double rho : rho_gen.shrink(value.rho)) {
      out.push_back({value.params, rho, value.cap});
    }
    for (const unsigned cap : cap_gen.shrink(value.cap)) {
      out.push_back({value.params, value.rho, cap});
    }
    return out;
  }
  std::string describe(const SegmentsCase& value) const {
    return params_gen.describe(value.params) + " rho=" +
           std::to_string(value.rho) + " cap=" + std::to_string(value.cap);
  }
};

TEST(PropSegmentsMonotonic, WideningTheCapNeverHurts) {
  proptest::PropOptions options;
  options.iterations = 30;
  proptest::check(
      "best overhead non-increasing in max_segments; search == min over "
      "pinned counts",
      SegmentsCaseGen{},
      [](const SegmentsCase& c) {
        InterleavedBackend backend(c.params, c.cap);
        backend.prepare();
        // Pinned per-count solves, the ground truth the search must match.
        std::vector<InterleavedSolution> pinned;
        for (unsigned m = 1; m <= c.cap; ++m) {
          pinned.push_back(backend.solve_segments(c.rho, m).interleaved());
        }

        double best_so_far = 0.0;
        bool any_feasible = false;
        std::size_t best_index = 0;
        for (unsigned cap = 1; cap <= c.cap; ++cap) {
          SCOPED_TRACE("cap " + std::to_string(cap));
          // Track the running minimum of the pinned solves under this cap.
          const InterleavedSolution& at_cap = pinned[cap - 1];
          if (at_cap.feasible &&
              (!any_feasible ||
               at_cap.energy_overhead < best_so_far)) {
            any_feasible = true;
            best_so_far = at_cap.energy_overhead;
            best_index = cap - 1;
          }
          InterleavedBackend capped(c.params, cap);
          capped.prepare();
          const InterleavedSolution searched =
              capped.solve(c.rho, SpeedPolicy::kTwoSpeed, false).interleaved();
          EXPECT_EQ(searched.feasible, any_feasible);
          if (any_feasible) {
            // The search returns the running minimum — monotone by
            // construction, and bit-identical to the best pinned solve.
            test::expect_identical_interleaved(searched,
                                               pinned[best_index]);
          }
        }
      },
      options);
}

}  // namespace
}  // namespace rexspeed::core
