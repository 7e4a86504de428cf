#pragma once

#include <functional>

#include "rexspeed/core/model_params.hpp"

namespace rexspeed::core {

/// Options for the 1-D numeric routines.
struct NumericOptions {
  double relative_tolerance = 1e-10;
  int max_iterations = 300;
  /// Hard cap on the pattern size explored (seconds-at-full-speed). Large
  /// enough for every configuration in the paper; prevents overflow probes.
  double w_cap = 1e12;
};

/// Golden-section search for the minimizer of a unimodal function on
/// [lo, hi]. Returns the abscissa of the minimum.
[[nodiscard]] double golden_section_minimize(
    const std::function<double(double)>& f, double lo, double hi,
    const NumericOptions& options = {});

/// Minimizer of a convex overhead-per-work function over W > 0: doubles an
/// upper bracket from W = 1 until the function rises (or overflows), then
/// golden-sections. Safe against the e^{λW} overflow region that a naive
/// fixed bracket would fall into.
[[nodiscard]] double minimize_unimodal_overhead(
    const std::function<double(double)>& overhead,
    const NumericOptions& options = {});

/// Warm-started variant: brackets the minimum outward from `seed` (e.g. a
/// first-order closed-form argmin) instead of doubling up from W = 1 —
/// far fewer curve evaluations when the seed lands near the true optimum,
/// which is what core::ExactOptBackend exploits when a pair sits inside the
/// §5.2 validity window. A useless seed — non-positive, non-finite, or
/// one where overhead(seed) itself is not finite (the e^{λW} overflow
/// region) — falls back to the cold-start bracket above. Deterministic
/// for a given (overhead, seed, options) triple.
[[nodiscard]] double minimize_unimodal_overhead(
    const std::function<double(double)>& overhead, double seed,
    const NumericOptions& options);

/// Bisects for the W where `overhead(W) == rho`, assuming the overhead is
/// monotone between `inside` (overhead ≤ rho, kept) and `outside`
/// (overhead > rho). Returns the feasible end of the shrunken bracket —
/// the boundary locator shared by optimize_exact_pair and the cached
/// ExactOptBackend solve path (one implementation, so the two cannot drift).
[[nodiscard]] double bisect_boundary(
    const std::function<double(double)>& overhead, double rho,
    double inside, double outside, const NumericOptions& options = {});

/// Solution of the exact (non-expanded) BiCrit problem for one speed pair:
/// minimize E(W,σ1,σ2)/W subject to T(W,σ1,σ2)/W ≤ ρ, using the exact
/// expectations of `exact_expectations.hpp`. Valid for any λs, λf ≥ 0 —
/// including the σ2 > 2σ1(1+s/f) regime where the first-order machinery
/// breaks down (paper §5.2).
struct ExactPairResult {
  bool feasible = false;
  double w_opt = 0.0;
  double energy_overhead = 0.0;
  double time_overhead = 0.0;
  /// Feasible pattern-size interval found numerically.
  double w_min = 0.0;
  double w_max = 0.0;
};

[[nodiscard]] ExactPairResult optimize_exact_pair(
    const ModelParams& params, double rho, double sigma1, double sigma2,
    const NumericOptions& options = {});

/// Warm-started variant: `w_seed` (> 0; e.g. the same pair's w_opt at a
/// neighboring grid point of a parameter sweep) seeds the unconstrained
/// time minimization the search pivots on, replacing the cold doubling
/// bracket from W = 1. The seed steers only how fast the bracket closes,
/// never which optimum it converges to (within numeric tolerance), so
/// warm-chained sweeps are equivalent to cold-started ones. A
/// non-positive or non-finite seed IS the cold start above, bit for bit.
[[nodiscard]] ExactPairResult optimize_exact_pair(
    const ModelParams& params, double rho, double sigma1, double sigma2,
    double w_seed, const NumericOptions& options = {});

/// Unconstrained minimizer of the exact time overhead T(W,σ1,σ2)/W — the
/// classical "minimize expected makespan" objective, used to validate
/// Theorem 2 against the exact model.
[[nodiscard]] double minimize_exact_time_overhead(
    const ModelParams& params, double sigma1, double sigma2,
    const NumericOptions& options = {});

/// Unconstrained minimizer of the exact energy overhead E(W,σ1,σ2)/W.
[[nodiscard]] double minimize_exact_energy_overhead(
    const ModelParams& params, double sigma1, double sigma2,
    const NumericOptions& options = {});

}  // namespace rexspeed::core
