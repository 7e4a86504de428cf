// Property: every expansion/optimization cache answers exactly what a
// from-scratch rebuild would — for ANY valid model. Three caches are under
// test: the SoA expansion table (vs the per-pair closed forms it is
// materialized from, and rewritten in place vs built fresh), the prepared
// exact-optimization backend (vs a fresh instance prepared per bound), and
// the prepared interleaved backend (vs a fresh instance). Caching
// is a pure speed trade: never a bit of the answer.

#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "rexspeed/core/expansion_soa.hpp"
#include "rexspeed/core/first_order.hpp"
#include "rexspeed/core/interleaved.hpp"
#include "rexspeed/core/kernels/kernel_dispatch.hpp"
#include "rexspeed/core/solver_backend.hpp"
#include "support/proptest.hpp"
#include "test_util.hpp"

namespace rexspeed::core {
namespace {

struct ParamsAndRho {
  ModelParams params;
  double rho = 3.0;
};

struct ParamsAndRhoGen {
  using Value = ParamsAndRho;
  proptest::ModelParamsGen params_gen;
  proptest::RhoGen rho_gen;

  ParamsAndRho operator()(proptest::Rng& rng) const {
    return {params_gen(rng), rho_gen(rng)};
  }
  std::vector<ParamsAndRho> shrink(const ParamsAndRho& value) const {
    std::vector<ParamsAndRho> out;
    for (const auto& params : params_gen.shrink(value.params)) {
      out.push_back({params, value.rho});
    }
    for (const double rho : rho_gen.shrink(value.rho)) {
      out.push_back({value.params, rho});
    }
    return out;
  }
  std::string describe(const ParamsAndRho& value) const {
    return params_gen.describe(value.params) + " rho=" +
           std::to_string(value.rho);
  }
};

TEST(PropCacheVsRebuild, ExpansionSoAMatchesPerPairClosedForms) {
  proptest::PropOptions options;
  options.iterations = 100;
  proptest::check(
      "ExpansionSoA::build slots == per-pair expansions, bit for bit",
      proptest::ModelParamsGen{},
      [](const ModelParams& params) {
        const ExpansionSoA table = ExpansionSoA::build(params);
        const std::size_t k = params.speeds.size();
        ASSERT_EQ(table.k, k);
        for (std::size_t i = 0; i < k; ++i) {
          for (std::size_t j = 0; j < k; ++j) {
            SCOPED_TRACE("pair (" + std::to_string(i) + ", " +
                         std::to_string(j) + ")");
            const std::size_t s = table.slot(i, j);
            const double s1 = params.speeds[i];
            const double s2 = params.speeds[j];
            const OverheadExpansion t = time_expansion(params, s1, s2);
            const OverheadExpansion e = energy_expansion(params, s1, s2);
            EXPECT_EQ(table.tx[s], t.x);
            EXPECT_EQ(table.ty[s], t.y);
            EXPECT_EQ(table.tz[s], t.z);
            EXPECT_EQ(table.ex[s], e.x);
            EXPECT_EQ(table.ey[s], e.y);
            EXPECT_EQ(table.ez[s], e.z);
            EXPECT_EQ(table.sigma1[s], s1);
            EXPECT_EQ(table.sigma2[s], s2);
            EXPECT_EQ(table.valid[s] != 0,
                      first_order_valid(params, s1, s2));
          }
        }
        // Padding slots are inert.
        for (std::size_t s = table.count; s < table.padded; ++s) {
          EXPECT_EQ(table.valid[s], 0);
        }
      },
      options);
}

/// Two parameter bundles: the one a table is first built for and the
/// one it is rewritten for. Half the cases keep the speed set (the
/// in-place path a model-axis panel takes), half may resize the table.
struct ParamsPair {
  ModelParams first;
  ModelParams second;
};

struct ParamsPairGen {
  using Value = ParamsPair;
  proptest::ModelParamsGen params_gen;

  ParamsPair operator()(proptest::Rng& rng) const {
    ParamsPair pair{params_gen(rng), params_gen(rng)};
    if (rng.chance(0.5)) pair.second.speeds = pair.first.speeds;
    return pair;
  }
  std::vector<ParamsPair> shrink(const ParamsPair& value) const {
    std::vector<ParamsPair> out;
    for (const auto& params : params_gen.shrink(value.first)) {
      out.push_back({params, value.second});
    }
    for (const auto& params : params_gen.shrink(value.second)) {
      out.push_back({value.first, params});
    }
    return out;
  }
  std::string describe(const ParamsPair& value) const {
    return "first: " + params_gen.describe(value.first) +
           " | second: " + params_gen.describe(value.second);
  }
};

/// Byte equality of two tables: shape plus every array over its padded
/// length, padding slots included.
void expect_identical_bytes(const ExpansionSoA& a, const ExpansionSoA& b) {
  ASSERT_EQ(a.k, b.k);
  ASSERT_EQ(a.count, b.count);
  ASSERT_EQ(a.padded, b.padded);
  const std::pair<const AlignedDoubles*, const AlignedDoubles*> columns[] = {
      {&a.tx, &b.tx},         {&a.ty, &b.ty},
      {&a.tz, &b.tz},         {&a.ex, &b.ex},
      {&a.ey, &b.ey},         {&a.ez, &b.ez},
      {&a.sigma1, &b.sigma1}, {&a.sigma2, &b.sigma2},
      {&a.rho_min, &b.rho_min}, {&a.we, &b.we}};
  for (const auto& [x, y] : columns) {
    ASSERT_EQ(x->size(), a.padded);
    ASSERT_EQ(y->size(), b.padded);
    EXPECT_EQ(std::memcmp(x->data(), y->data(), a.padded * sizeof(double)),
              0);
  }
  ASSERT_EQ(a.valid.size(), a.padded);
  ASSERT_EQ(b.valid.size(), b.padded);
  EXPECT_EQ(std::memcmp(a.valid.data(), b.valid.data(), a.padded), 0);
}

TEST(PropCacheVsRebuild, InPlaceRebuildMatchesFreshBuildByteForByte) {
  proptest::PropOptions options;
  options.iterations = 100;
  proptest::check(
      "ExpansionSoA::rebuild(p2) on a p1 table == build(p2), every byte",
      ParamsPairGen{},
      [](const ParamsPair& c) {
        for (const kernels::KernelOps* ops :
             {&kernels::scalar_ops(), &kernels::active_ops()}) {
          SCOPED_TRACE(std::string("ops ") + ops->name);
          ExpansionSoA table = ExpansionSoA::build_with(c.first, *ops);
          table.rebuild(c.second, *ops);
          expect_identical_bytes(table,
                                 ExpansionSoA::build_with(c.second, *ops));
        }
      },
      options);
}

TEST(PropCacheVsRebuild, PreparedExactOptBackendMatchesFreshInstance) {
  proptest::PropOptions options;
  options.iterations = 20;  // two exact-curve preparations per case
  proptest::check(
      "one prepared ExactOptBackend == fresh prepare at each bound",
      ParamsAndRhoGen{},
      [](const ParamsAndRho& c) {
        ExactOptBackend shared(c.params);
        shared.prepare();
        // The shared cache serves several bounds; a fresh backend pays its
        // own prepare per bound. Same bits either way.
        for (const double scale : {1.0, 1.7, 3.1}) {
          SCOPED_TRACE("rho scale " + std::to_string(scale));
          ExactOptBackend fresh(c.params);
          fresh.prepare();
          test::expect_identical_solution(
              shared.solve(c.rho * scale, SpeedPolicy::kTwoSpeed, true),
              fresh.solve(c.rho * scale, SpeedPolicy::kTwoSpeed, true));
        }
      },
      options);
}

/// ParamsAndRhoGen constrained to the interleaved model's λf = 0.
struct SilentParamsAndRhoGen {
  using Value = ParamsAndRho;
  ParamsAndRhoGen inner{proptest::ModelParamsGen{false},
                        proptest::RhoGen{}};
  ParamsAndRho operator()(proptest::Rng& rng) const { return inner(rng); }
  std::vector<ParamsAndRho> shrink(const ParamsAndRho& value) const {
    std::vector<ParamsAndRho> out;
    for (auto& candidate : inner.shrink(value)) {
      candidate.params.lambda_failstop = 0.0;
      out.push_back(candidate);
    }
    return out;
  }
  std::string describe(const ParamsAndRho& value) const {
    return inner.describe(value);
  }
};

TEST(PropCacheVsRebuild, PreparedInterleavedBackendMatchesFreshInstance) {
  proptest::PropOptions options;
  options.iterations = 25;
  proptest::check(
      "one prepared InterleavedBackend == fresh prepare at each bound",
      SilentParamsAndRhoGen{},
      [](const ParamsAndRho& c) {
        constexpr unsigned kCap = 4;
        InterleavedBackend shared(c.params, kCap);
        shared.prepare();
        // The shared cache serves the search, every pinned count and
        // several bounds; a fresh backend pays its own prepare per bound.
        for (const double scale : {1.0, 2.3}) {
          SCOPED_TRACE("rho scale " + std::to_string(scale));
          const double rho = c.rho * scale;
          InterleavedBackend fresh(c.params, kCap);
          fresh.prepare();
          test::expect_identical_solution(
              shared.solve(rho, SpeedPolicy::kTwoSpeed, false),
              fresh.solve(rho, SpeedPolicy::kTwoSpeed, false));
          for (unsigned m = 1; m <= kCap; ++m) {
            SCOPED_TRACE("segments " + std::to_string(m));
            test::expect_identical_solution(shared.solve_segments(rho, m),
                                            fresh.solve_segments(rho, m));
          }
        }
      },
      options);
}

}  // namespace
}  // namespace rexspeed::core
