#pragma once

namespace rexspeed::core {

/// Everything about one speed pair (σ1, σ2) of the EXACT model that
/// depends only on the model parameters — not on the performance bound ρ:
/// one entry of the cache core::ExactOptBackend::prepare() builds.
/// Both exact overhead curves T(W)/W and E(W)/W are unimodal in W (the
/// 1/W checkpoint term falls, the e^{λW} re-execution terms rise), so
/// their unconstrained minima pin down every constrained solve: a bound
/// below `rho_min` is infeasible, a bound admitting `w_energy` is solved
/// by the cached optimum outright, and anything in between reduces to
/// locating one feasibility boundary by bisection.
///
/// This is the exact-model counterpart of PairExpansion (whose closed-form
/// coefficients are only meaningful inside the §5.2 first-order validity
/// window) and the m = 1 slice of InterleavedExpansion — but valid for any
/// λs, λf ≥ 0, including the σ2 > 2σ1(1+s/f) regime where the first-order
/// machinery breaks down.
struct ExactExpansion {
  double sigma1 = 0.0;
  double sigma2 = 0.0;
  int index1 = -1;  ///< positions in ModelParams::speeds
  int index2 = -1;
  /// True when the pair sits inside the §5.2 first-order validity window.
  /// The closed-form argmins then seed the numeric bracketing (a warm
  /// start); outside the window the cold-start bracket is used. Either
  /// way the cached optima are exact — the flag is carried into
  /// PairSolution::first_order_valid for reporting only.
  bool first_order_valid = true;
  double w_time = 0.0;      ///< unconstrained minimizer of T(W)/W
  double rho_min = 0.0;     ///< T(w_time)/w_time — exact feasibility floor
  double w_energy = 0.0;    ///< unconstrained minimizer of E(W)/W
  double energy_min = 0.0;  ///< E(w_energy)/w_energy
  double time_at_we = 0.0;  ///< T(w_energy)/w_energy
};

}  // namespace rexspeed::core
