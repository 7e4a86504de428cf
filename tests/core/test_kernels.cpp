// The expansion kernels: the pure tier-selection rule, the dispatch
// table, and — the load-bearing contract — a bit-identical
// build_pair_table from every available tier over every registered
// scenario's model parameters. An AVX2 build that rounds one
// intermediate differently from the scalar order fails here, not in a
// golden fixture three layers up. eval_pairs is checked against the
// pointwise pair solve it replaces.

#include "rexspeed/core/kernels/kernel_dispatch.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "rexspeed/core/bicrit_solver.hpp"
#include "rexspeed/core/expansion_soa.hpp"
#include "rexspeed/engine/scenario.hpp"
#include "rexspeed/sweep/figure_sweeps.hpp"
#include "test_util.hpp"

namespace rexspeed::core::kernels {
namespace {

TEST(KernelTierRule, ForceScalarBeatsEveryFeature) {
  EXPECT_EQ(choose_tier(true, true), KernelTier::kScalar);
  EXPECT_EQ(choose_tier(true, false), KernelTier::kScalar);
}

TEST(KernelTierRule, WidestAvailableTierWins) {
  EXPECT_EQ(choose_tier(false, false), KernelTier::kScalar);
  EXPECT_EQ(choose_tier(false, true), KernelTier::kAVX2);
}

TEST(KernelDispatch, ScalarTierIsAlwaysAvailable) {
  const std::vector<KernelTier> tiers = available_tiers();
  ASSERT_FALSE(tiers.empty());
  EXPECT_EQ(tiers.front(), KernelTier::kScalar);
  // The active tier is one of the available ones.
  bool listed = false;
  for (const KernelTier tier : tiers) {
    if (tier == active_tier()) listed = true;
  }
  EXPECT_TRUE(listed);
  EXPECT_STREQ(to_string(KernelTier::kScalar), "scalar");
  EXPECT_STREQ(ops_for_tier(KernelTier::kScalar).name, "scalar");
  EXPECT_STREQ(active_ops().name, to_string(active_tier()));
}

TEST(KernelDispatch, TheBuildIsWiredInEveryTier) {
  for (const KernelTier tier : available_tiers()) {
    const KernelOps& ops = ops_for_tier(tier);
    EXPECT_NE(ops.build_pair_table, nullptr) << ops.name;
    EXPECT_STREQ(ops.name, to_string(tier));
  }
}

/// Bytewise comparison of two double arrays — EXPECT_EQ would call +0.0
/// and -0.0 equal and NaN unequal; the kernel contract is stricter (the
/// exact same bits, padding included).
void expect_same_bits(const AlignedDoubles& a, const AlignedDoubles& b,
                      const char* label, const char* tier) {
  ASSERT_EQ(a.size(), b.size()) << label << " (" << tier << ")";
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(double)), 0)
      << label << " differs from scalar in tier " << tier;
}

/// The distinct model-parameter bundles of the whole scenario registry —
/// every configuration × override combination a figure actually uses.
std::vector<core::ModelParams> registry_params() {
  std::vector<core::ModelParams> all;
  for (const engine::ScenarioSpec& spec : engine::scenario_registry()) {
    all.push_back(spec.resolve_params());
  }
  return all;
}

TEST(KernelBitIdentity, BuildPairTableMatchesScalarOnEveryTier) {
  for (const core::ModelParams& params : registry_params()) {
    const ExpansionSoA reference =
        ExpansionSoA::build_with(params, scalar_ops());
    ASSERT_EQ(reference.count, reference.k * reference.k);
    ASSERT_EQ(reference.padded % ExpansionSoA::kLane, 0u);
    for (const KernelTier tier : available_tiers()) {
      const KernelOps& ops = ops_for_tier(tier);
      const ExpansionSoA table = ExpansionSoA::build_with(params, ops);
      ASSERT_EQ(table.count, reference.count);
      ASSERT_EQ(table.padded, reference.padded);
      expect_same_bits(table.tx, reference.tx, "tx", ops.name);
      expect_same_bits(table.ty, reference.ty, "ty", ops.name);
      expect_same_bits(table.tz, reference.tz, "tz", ops.name);
      expect_same_bits(table.ex, reference.ex, "ex", ops.name);
      expect_same_bits(table.ey, reference.ey, "ey", ops.name);
      expect_same_bits(table.ez, reference.ez, "ez", ops.name);
      expect_same_bits(table.sigma1, reference.sigma1, "sigma1", ops.name);
      expect_same_bits(table.sigma2, reference.sigma2, "sigma2", ops.name);
      expect_same_bits(table.rho_min, reference.rho_min, "rho_min",
                       ops.name);
      expect_same_bits(table.we, reference.we, "we", ops.name);
      EXPECT_EQ(table.valid, reference.valid) << ops.name;
    }
  }
}

TEST(EvalPairs, MatchesThePointwisePairSolveBitForBit) {
  // Every slot of one eval_pairs sweep against the first-order pair solve
  // BiCritSolver runs per pair — the equivalence the batched ρ panel's
  // winner reconstruction rests on.
  const std::vector<double> rhos =
      sweep::default_grid(sweep::SweepParameter::kPerformanceBound, 17);
  for (const core::ModelParams& params : registry_params()) {
    const BiCritSolver solver(params);
    const ExpansionSoA& table = solver.expansion_table();
    const std::size_t n = table.padded;
    AlignedDoubles w(n), lo(n), hi(n), e(n);
    std::vector<unsigned char> f(n);
    for (const double rho : rhos) {
      eval_pairs(table, rho, solver.numeric_options().w_cap, w.data(),
                 lo.data(), hi.data(), e.data(), f.data());
      for (std::size_t s = 0; s < table.count; ++s) {
        SCOPED_TRACE("slot " + std::to_string(s) + " rho " +
                     std::to_string(rho));
        const PairSolution pair = solver.solve_pair_by_index(
            rho, s / table.k, s % table.k, EvalMode::kFirstOrder);
        ASSERT_EQ(f[s] != 0, pair.feasible);
        if (!pair.feasible) continue;
        EXPECT_EQ(std::memcmp(&w[s], &pair.w_opt, sizeof(double)), 0);
        EXPECT_EQ(std::memcmp(&lo[s], &pair.w_min, sizeof(double)), 0);
        EXPECT_EQ(std::memcmp(&hi[s], &pair.w_max, sizeof(double)), 0);
        EXPECT_EQ(std::memcmp(&e[s], &pair.energy_overhead, sizeof(double)),
                  0);
      }
      for (std::size_t s = table.count; s < n; ++s) EXPECT_EQ(f[s], 0);
    }
  }
}

TEST(KernelBitIdentity, SolverAdoptionMatchesTheScalarBuild) {
  // The BiCritSolver materializes its cache from the active tier's build;
  // its expansion table must be the scalar build bit for bit (the whole
  // point of the scalar-reference contract: dispatch is invisible).
  const core::ModelParams params = test::params_for("Hera/XScale");
  const BiCritSolver solver(params);
  const ExpansionSoA reference = ExpansionSoA::build_with(params, scalar_ops());
  const ExpansionSoA& table = solver.expansion_table();
  ASSERT_EQ(table.count, reference.count);
  expect_same_bits(table.tx, reference.tx, "tx", "solver");
  expect_same_bits(table.ey, reference.ey, "ey", "solver");
  expect_same_bits(table.rho_min, reference.rho_min, "rho_min", "solver");
  EXPECT_EQ(table.valid, reference.valid);
}

}  // namespace
}  // namespace rexspeed::core::kernels
