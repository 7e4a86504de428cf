#include "rexspeed/core/expansion_soa.hpp"

#include <limits>

#include "rexspeed/core/kernels/kernel_dispatch.hpp"
#include "rexspeed/core/model_params.hpp"

namespace rexspeed::core {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Writes the inert values a padding (or otherwise dead) slot carries:
/// invalid, infeasible for every bound, and coefficients that keep lane
/// arithmetic finite (no 0/0) so kernels can process padding unmasked.
void write_inert_slot(ExpansionSoA& table, std::size_t s) {
  table.tx[s] = 0.0;
  table.ty[s] = 1.0;
  table.tz[s] = 1.0;
  table.ex[s] = 0.0;
  table.ey[s] = 1.0;
  table.ez[s] = 1.0;
  table.sigma1[s] = 1.0;
  table.sigma2[s] = 1.0;
  table.rho_min[s] = kInf;
  table.we[s] = 1.0;  // √(ez/ey) of the inert coefficients, kept finite
  table.valid[s] = 0;
}

}  // namespace

ExpansionSoA ExpansionSoA::build(const ModelParams& params) {
  return build_with(params, kernels::active_ops());
}

ExpansionSoA ExpansionSoA::build_with(const ModelParams& params,
                                      const kernels::KernelOps& ops) {
  ExpansionSoA table;
  table.rebuild(params, ops);
  return table;
}

void ExpansionSoA::rebuild(const ModelParams& params,
                           const kernels::KernelOps& ops) {
  params.validate();
  if (k != params.speeds.size()) {
    k = params.speeds.size();
    count = k * k;
    padded = (count + kLane - 1) / kLane * kLane;
    for (AlignedDoubles* column :
         {&tx, &ty, &tz, &ex, &ey, &ez, &sigma1, &sigma2, &rho_min, &we}) {
      column->resize(padded);
    }
    valid.resize(padded);
  }

  for (std::size_t i = 0; i < k; ++i) {
    for (std::size_t j = 0; j < k; ++j) {
      sigma1[slot(i, j)] = params.speeds[i];
      sigma2[slot(i, j)] = params.speeds[j];
    }
  }
  ops.build_pair_table(params, *this);

  // Padding is canonicalized *after* the op so every tier produces
  // byte-identical arrays end to end, whatever its tail handling did —
  // and whatever an earlier build left there: the AVX2 op computes the
  // padding lanes too, which on a rewritten table hold the inert σ = 1.
  for (std::size_t s = count; s < padded; ++s) {
    write_inert_slot(*this, s);
  }
}

}  // namespace rexspeed::core
