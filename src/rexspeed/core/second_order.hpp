#pragma once

#include "rexspeed/core/model_params.hpp"

namespace rexspeed::core {

/// Second-order expansion of the time overhead for fail-stop errors only
/// (paper Prop. 7 / Eq. (11)):
///   T/W ≈ x + z/W + y1·W + y2·W²
/// with
///   x  = 1/σ1 + λR/σ1,
///   z  = C,
///   y1 = (1/(σ1σ2) − 1/(2σ1²))·λ,
///   y2 = (1/(6σ1³) − 1/(2σ1²σ2) + 1/(2σ1σ2²))·λ².
/// At σ2 = 2σ1 the linear coefficient y1 vanishes and the minimizer becomes
/// Θ(λ^{-2/3}) — Theorem 2.
struct SecondOrderExpansion {
  double x = 0.0;
  double z = 0.0;
  double y1 = 0.0;
  double y2 = 0.0;

  [[nodiscard]] double evaluate(double work) const noexcept {
    return x + z / work + y1 * work + y2 * work * work;
  }
};

/// Builds the Eq. (11) expansion; requires λf > 0 and ignores λs (the paper
/// derives it for s = 0).
[[nodiscard]] SecondOrderExpansion time_second_order_failstop(
    const ModelParams& params, double sigma1, double sigma2);

/// Second-order expansion of Prop. 2 for silent errors only (our
/// extension of the paper's Prop. 7 to the silent-error side):
///   x  = 1/σ1 + λ(R + V/σ2)/σ1,
///   z  = C + V/σ1,
///   y1 = λ/(σ1σ2) + λ²(R + V/σ2)(1/(σ1σ2) − 1/(2σ1²)),
///   y2 = λ²(1/(σ1σ2²) − 1/(2σ1²σ2)).
/// Unlike the fail-stop case, y1 > 0 for every speed pair, so the optimal
/// pattern stays Θ(λ^{-1/2}) — but the quadratic term shifts it downward,
/// explaining the ~1–4% pattern-size gap between Theorem 1 and the exact
/// optimizer that `FirstOrderAccuracy.PatternSizesAgreeWithinTwoPercent`
/// bounds. Requires λs > 0; ignores λf.
[[nodiscard]] SecondOrderExpansion time_second_order_silent(
    const ModelParams& params, double sigma1, double sigma2);

/// Theorem 2 closed form: Wopt = (12C/λf²)^{1/3}·σ for σ2 = 2σ1 = 2σ.
[[nodiscard]] double theorem2_pattern_size(double checkpoint_s,
                                           double lambda_failstop,
                                           double sigma);

/// Minimizes a second-order expansion over W > 0 by solving
/// 2·y2·W³ + y1·W² − z = 0 (the stationarity condition) with safeguarded
/// Newton iteration. Requires y2 > 0 or (y2 == 0 and y1 > 0).
[[nodiscard]] double minimize_second_order(const SecondOrderExpansion& exp);

}  // namespace rexspeed::core
