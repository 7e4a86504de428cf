#pragma once

#include "rexspeed/core/model_params.hpp"

namespace rexspeed::core {

/// Exact expected values for one periodic pattern (W units of work, then a
/// verification, then a checkpoint), first executed at σ1 and re-executed
/// at σ2 after every detected error until success.
///
/// These evaluators are derived by solving the paper's recursive equations
/// ((Prop. 1)–(Prop. 3) recursion for silent errors, Eq. (8) for combined
/// fail-stop + silent errors) in closed form. For silent errors only they
/// coincide exactly with the printed Propositions 1–3. For the combined
/// case the printed Prop. 4/5 carry a spurious `(… ) V/σ2` term that breaks
/// the λf → 0 reduction to Prop. 2; our forms (which do reduce correctly)
/// are used everywhere, and the literal printed forms are provided below
/// for comparison (see `paper_forms`). The discrepancy is O(λ V) and is
/// numerically negligible for every configuration in the paper.

/// Prop. 1 — expected time with a single speed σ, silent errors only.
/// Requires lambda_failstop == 0 conceptually; only lambda_silent is read.
[[nodiscard]] double expected_time_single_speed_silent(
    const ModelParams& params, double work, double sigma);

/// Expected time of one pattern; exact for any λs, λf ≥ 0.
/// Reduces to Prop. 2 when λf = 0 and to the error-free
/// `C + (W+V)/σ1` when both rates are zero.
[[nodiscard]] double expected_time(const ModelParams& params, double work,
                                   double sigma1, double sigma2);

/// Expected energy of one pattern; exact for any λs, λf ≥ 0.
/// Reduces to Prop. 3 when λf = 0.
[[nodiscard]] double expected_energy(const ModelParams& params, double work,
                                     double sigma1, double sigma2);

/// Expected time overhead per work unit, T(W,σ1,σ2)/W.
[[nodiscard]] double time_overhead(const ModelParams& params, double work,
                                   double sigma1, double sigma2);

/// Expected energy overhead per work unit, E(W,σ1,σ2)/W.
[[nodiscard]] double energy_overhead(const ModelParams& params, double work,
                                     double sigma1, double sigma2);

namespace detail {

/// The bodies of time_overhead / energy_overhead without their argument
/// checks: `params` must already be validated and `work` and both speeds
/// positive. The public functions and ExactOptBackend (which validates
/// once, at construction, then evaluates these across its cache build,
/// tight-bound bisections and min-ρ fallbacks) both call these, so the two
/// agree bit for bit by construction.
[[nodiscard]] double time_overhead_unchecked(const ModelParams& params,
                                             double work, double sigma1,
                                             double sigma2);
[[nodiscard]] double energy_overhead_unchecked(const ModelParams& params,
                                               double work, double sigma1,
                                               double sigma2);

}  // namespace detail

/// Expected wall-clock time lost when a fail-stop error strikes during a
/// segment lasting `duration = w/σ` seconds:
/// Tlost = 1/λf − duration / (e^{λf · duration} − 1).
[[nodiscard]] double expected_time_lost(double lambda_failstop,
                                        double duration);

namespace paper_forms {

/// Literal Prop. 4 of the paper (combined errors). Kept verbatim —
/// including its extra V/σ2 term — so tests can quantify the erratum.
[[nodiscard]] double prop4_expected_time(const ModelParams& params,
                                         double work, double sigma1,
                                         double sigma2);

/// Literal Prop. 5 of the paper (combined errors).
[[nodiscard]] double prop5_expected_energy(const ModelParams& params,
                                           double work, double sigma1,
                                           double sigma2);

}  // namespace paper_forms

}  // namespace rexspeed::core
