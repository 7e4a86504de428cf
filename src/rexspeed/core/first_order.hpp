#pragma once

#include "rexspeed/core/model_params.hpp"

namespace rexspeed::core {

/// First-order (Young/Daly-style) expansion of an overhead-per-work-unit
/// function: overhead(W) ≈ x + y·W + z/W, obtained from the exact
/// expectations via the Taylor expansion e^{λW} = 1 + λW + O(λ²W²)
/// (paper Eqs. (2), (3), (9), (10)).
struct OverheadExpansion {
  double x = 0.0;  ///< constant term
  double y = 0.0;  ///< coefficient of W (may be negative with fail-stop)
  double z = 0.0;  ///< coefficient of 1/W

  [[nodiscard]] double evaluate(double work) const noexcept {
    return x + y * work + z / work;
  }

  /// True when the expansion has a finite positive minimizer √(z/y).
  [[nodiscard]] bool has_interior_minimum() const noexcept {
    return y > 0.0 && z > 0.0;
  }

  /// Unconstrained minimizer √(z/y); requires has_interior_minimum().
  [[nodiscard]] double argmin() const;

  /// Minimum value x + 2√(yz); requires has_interior_minimum().
  [[nodiscard]] double min_value() const;
};

/// Time overhead expansion T(W,σ1,σ2)/W. For silent errors only this is
/// exactly Eq. (2); with fail-stop errors it is Eq. (9):
///   x = (1 + λ(R + V/σ2) − λf V/σ1) / σ1,
///   y = λ/(σ1σ2) − λf/(2σ1²),
///   z = C + V/σ1,            with λ = λs + λf.
[[nodiscard]] OverheadExpansion time_expansion(const ModelParams& params,
                                               double sigma1, double sigma2);

/// Energy overhead expansion E(W,σ1,σ2)/W. For silent errors only this is
/// Eq. (3) with the paper's κσ1³ typo in the λV term corrected to κσ2³
/// (the term stems from re-executed verifications, which run at σ2; the
/// corrected form is the true first-order expansion of Prop. 3 and matches
/// the paper's own combined-error Eq. (10) when λf = 0):
///   x = Pc(σ1)/σ1 + λ(R·Pio⁺ + V·Pc(σ2)/σ2)/σ1 − λf V·Pc(σ1)/σ1²,
///   y = λ·Pc(σ2)/(σ1σ2) − λf·Pc(σ1)/(2σ1²),
///   z = C·Pio⁺ + V·Pc(σ1)/σ1,
/// where Pc(σ) = Pidle + κσ³ and Pio⁺ = Pidle + Pio.
[[nodiscard]] OverheadExpansion energy_expansion(const ModelParams& params,
                                                 double sigma1, double sigma2);

namespace detail {

/// The expression bodies of time_expansion / energy_expansion without
/// their argument checks: `params` must already be validated and both
/// speeds positive. The public functions and the scalar expansion-table
/// build (which validates once per table, not once per slot) both call
/// these, so the two agree bit for bit by construction.
[[nodiscard]] OverheadExpansion time_expansion_unchecked(
    const ModelParams& params, double sigma1, double sigma2);
[[nodiscard]] OverheadExpansion energy_expansion_unchecked(
    const ModelParams& params, double sigma1, double sigma2);

}  // namespace detail

/// True when the first-order approach yields a meaningful optimum for this
/// speed pair, i.e. both expansions have y > 0 (paper §5.2: requires
/// (2(1+s/f))^{-1/2} < σ2/σ1 < 2(1+s/f) up to power factors). Always true
/// for silent errors only.
[[nodiscard]] bool first_order_valid(const ModelParams& params, double sigma1,
                                     double sigma2);

/// Largest re-execution ratio σ2/σ1 for which the time expansion keeps a
/// positive W coefficient: 2λ/λf = 2(1 + s/f). Returns +inf when λf = 0.
[[nodiscard]] double max_valid_speed_ratio(const ModelParams& params);

}  // namespace rexspeed::core
