// Portable reference tier of build_pair_table, plus the per-bound loops
// eval_pairs and classify_pairs. Every slot goes through the *same*
// expression bodies the pointwise solvers use (the unchecked cores of
// time_expansion / energy_expansion, feasible_interval, OverheadExpansion
// members), so the outputs are bit-identical to the per-pair code by
// construction — the contract the AVX2 build is tested against. The
// table build validates the parameters once (ExpansionSoA::rebuild), so
// the per-slot calls skip the public functions' checks.

#include <algorithm>
#include <cmath>
#include <limits>

#include "rexspeed/core/expansion_soa.hpp"
#include "rexspeed/core/feasibility.hpp"
#include "rexspeed/core/first_order.hpp"
#include "rexspeed/core/kernels/kernel_dispatch.hpp"
#include "rexspeed/core/model_params.hpp"

namespace rexspeed::core::kernels {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

void build_pair_table_scalar(const ModelParams& params, ExpansionSoA& out) {
  for (std::size_t s = 0; s < out.count; ++s) {
    const double sigma1 = out.sigma1[s];
    const double sigma2 = out.sigma2[s];
    const OverheadExpansion time_exp =
        detail::time_expansion_unchecked(params, sigma1, sigma2);
    const OverheadExpansion energy_exp =
        detail::energy_expansion_unchecked(params, sigma1, sigma2);
    out.tx[s] = time_exp.x;
    out.ty[s] = time_exp.y;
    out.tz[s] = time_exp.z;
    out.ex[s] = energy_exp.x;
    out.ey[s] = energy_exp.y;
    out.ez[s] = energy_exp.z;
    out.rho_min[s] = rho_min(time_exp);
    out.we[s] =
        energy_exp.has_interior_minimum() ? energy_exp.argmin() : kInf;
    out.valid[s] = (time_exp.y > 0.0 && energy_exp.y > 0.0) ? 1 : 0;
  }
}

}  // namespace

const KernelOps& scalar_ops() noexcept {
  static const KernelOps ops{"scalar", &build_pair_table_scalar};
  return ops;
}

void eval_pairs(const ExpansionSoA& table, double rho, double w_cap,
                double* w_opt, double* w_min, double* w_max, double* energy,
                unsigned char* feasible) {
  for (std::size_t s = 0; s < table.padded; ++s) {
    // Canonical infeasible outputs; overwritten only by feasible slots.
    w_opt[s] = 0.0;
    w_min[s] = 0.0;
    w_max[s] = 0.0;
    energy[s] = kInf;
    feasible[s] = 0;
    if (s >= table.count || table.valid[s] == 0) continue;

    // The kFirstOrder branch of BiCritSolver::solve_cached_pair, slot-wise.
    const OverheadExpansion time_exp = table.time_expansion(s);
    const OverheadExpansion energy_exp = table.energy_expansion(s);
    const FeasibleInterval interval = feasible_interval(time_exp, rho);
    if (!interval.feasible()) continue;

    // table.we caches argmin() from build time — same inputs, same
    // correctly-rounded √(ez/ey), same bits.
    double w_energy =
        energy_exp.has_interior_minimum() ? table.we[s] : interval.w_max;
    if (!std::isfinite(w_energy)) {
      w_energy = std::isfinite(interval.w_max) ? interval.w_max : w_cap;
    }
    const double w =
        std::min(std::max(interval.w_min, w_energy),
                 std::isfinite(interval.w_max)
                     ? interval.w_max
                     : std::numeric_limits<double>::max());
    w_opt[s] = w;
    w_min[s] = interval.w_min;
    w_max[s] = interval.w_max;
    energy[s] = energy_exp.evaluate(w);
    feasible[s] = 1;
  }
}

void classify_pairs(const double* rho_min, const double* time_at_we,
                    std::size_t count, double rho, unsigned char* cls) {
  for (std::size_t s = 0; s < count; ++s) {
    // The branch structure of the cached backends' per-slot solve:
    // NaN-propagating comparisons mean "not ≤" routes to infeasible,
    // exactly as there.
    cls[s] = !(rho_min[s] <= rho) ? 0u : (time_at_we[s] <= rho ? 1u : 2u);
  }
}

}  // namespace rexspeed::core::kernels
