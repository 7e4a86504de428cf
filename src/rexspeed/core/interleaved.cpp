#include "rexspeed/core/interleaved.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "rexspeed/core/numeric_optimizer.hpp"

namespace rexspeed::core {

namespace {

void check_args(const ModelParams& params, double work, unsigned segments,
                double sigma1, double sigma2) {
  params.validate();
  if (params.lambda_failstop > 0.0) {
    throw std::invalid_argument(
        "interleaved expectations: derived for silent errors only");
  }
  if (!(work > 0.0)) {
    throw std::invalid_argument(
        "interleaved expectations: work must be positive");
  }
  if (segments == 0) {
    throw std::invalid_argument(
        "interleaved expectations: need at least one segment");
  }
  if (!(sigma1 > 0.0) || !(sigma2 > 0.0)) {
    throw std::invalid_argument(
        "interleaved expectations: speeds must be positive");
  }
}

/// Per-attempt aggregates at one speed: probability of failure `q`,
/// expected *lost* time `lost_time` spent before detection on a failed
/// attempt (compute+verify, excluding the recovery), and the deterministic
/// duration of a successful attempt `success_time`.
struct AttemptProfile {
  double q = 0.0;
  double lost_time = 0.0;     // E[time | failure] · P(failure)
  double success_time = 0.0;  // W/σ + m·V/σ
};

AttemptProfile profile(const ModelParams& p, double work, unsigned segments,
                       double sigma) {
  const double m = static_cast<double>(segments);
  const double seg_compute = work / (m * sigma);
  const double verify = p.verification_s / sigma;
  const double a = p.lambda_silent * seg_compute;  // per-segment exposure
  const double step = seg_compute + verify;        // segment + its check

  AttemptProfile out;
  out.success_time = work / sigma + m * verify;
  // P(first error in segment i) = e^{−(i−1)a}(1 − e^{−a}); detection at
  // the end of segment i costs i·step.
  const double p_seg = -std::expm1(-a);
  const double keep = std::exp(-a);  // loop-invariant: one libm call
  double survive = 1.0;              // e^{−(i−1)a}
  for (unsigned i = 1; i <= segments; ++i) {
    const double pi = survive * p_seg;
    out.q += pi;
    out.lost_time += pi * static_cast<double>(i) * step;
    survive *= keep;
  }
  return out;
}

}  // namespace

namespace detail {

double expected_time_interleaved_unchecked(const ModelParams& params,
                                           double work, unsigned segments,
                                           double sigma1, double sigma2) {
  const AttemptProfile first = profile(params, work, segments, sigma1);
  const AttemptProfile retry = profile(params, work, segments, sigma2);
  // Tail (all retries at σ2): T2 = lost + q·R + (1−q)(succ + C) + q·T2.
  const double tail =
      (retry.lost_time + retry.q * params.recovery_s +
       (1.0 - retry.q) * (retry.success_time + params.checkpoint_s)) /
      (1.0 - retry.q);
  return first.lost_time + first.q * (params.recovery_s + tail) +
         (1.0 - first.q) * (first.success_time + params.checkpoint_s);
}

double expected_energy_interleaved_unchecked(const ModelParams& params,
                                             double work, unsigned segments,
                                             double sigma1, double sigma2) {
  const AttemptProfile first = profile(params, work, segments, sigma1);
  const AttemptProfile retry = profile(params, work, segments, sigma2);
  const double pc1 = params.compute_power(sigma1);
  const double pc2 = params.compute_power(sigma2);
  const double pio = params.io_total_power();
  const double tail =
      (retry.lost_time * pc2 + retry.q * params.recovery_s * pio +
       (1.0 - retry.q) *
           (retry.success_time * pc2 + params.checkpoint_s * pio)) /
      (1.0 - retry.q);
  return first.lost_time * pc1 +
         first.q * (params.recovery_s * pio + tail) +
         (1.0 - first.q) *
             (first.success_time * pc1 + params.checkpoint_s * pio);
}

}  // namespace detail

double expected_time_interleaved(const ModelParams& params, double work,
                                 unsigned segments, double sigma1,
                                 double sigma2) {
  check_args(params, work, segments, sigma1, sigma2);
  return detail::expected_time_interleaved_unchecked(params, work, segments,
                                                     sigma1, sigma2);
}

double expected_energy_interleaved(const ModelParams& params, double work,
                                   unsigned segments, double sigma1,
                                   double sigma2) {
  check_args(params, work, segments, sigma1, sigma2);
  return detail::expected_energy_interleaved_unchecked(params, work, segments,
                                                       sigma1, sigma2);
}

InterleavedSolution optimize_interleaved(const ModelParams& params,
                                         double rho, double sigma1,
                                         double sigma2,
                                         unsigned max_segments) {
  if (!(rho > 0.0)) {
    throw std::invalid_argument("optimize_interleaved: rho must be positive");
  }
  if (max_segments == 0) {
    throw std::invalid_argument(
        "optimize_interleaved: need at least one segment");
  }
  InterleavedSolution best;
  best.sigma1 = sigma1;
  best.sigma2 = sigma2;
  best.energy_overhead = std::numeric_limits<double>::infinity();
  NumericOptions options;
  for (unsigned m = 1; m <= max_segments; ++m) {
    const auto time_per_work = [&](double w) {
      return expected_time_interleaved(params, w, m, sigma1, sigma2) / w;
    };
    const auto energy_per_work = [&](double w) {
      return expected_energy_interleaved(params, w, m, sigma1, sigma2) / w;
    };
    // Reuse the exact-pair machinery shape: find the feasible window of
    // the time constraint, then minimize energy inside it.
    const double w_time = minimize_unimodal_overhead(time_per_work, options);
    if (time_per_work(w_time) > rho) continue;
    // Bracket the feasible interval around the time optimum, then bisect
    // each boundary so the energy search never leaves the feasible set.
    const auto bisect = [&](double inside, double outside) {
      for (int i = 0; i < 200 && std::abs(outside - inside) >
                                     1e-9 * (inside + 1.0); ++i) {
        const double mid = 0.5 * (inside + outside);
        (time_per_work(mid) <= rho ? inside : outside) = mid;
      }
      return inside;
    };
    double lo = w_time;
    while (lo > 1e-6 && time_per_work(lo * 0.5) <= rho) lo *= 0.5;
    lo = bisect(lo, lo * 0.5);
    double hi = w_time;
    while (hi < options.w_cap && time_per_work(hi * 2.0) <= rho) hi *= 2.0;
    hi = bisect(hi, std::min(hi * 2.0, options.w_cap));
    const double w_opt =
        golden_section_minimize(energy_per_work, lo, hi, options);
    const double energy = energy_per_work(w_opt);
    const double time = time_per_work(w_opt);
    if (time <= rho * (1.0 + 1e-9) && energy < best.energy_overhead) {
      best.feasible = true;
      best.segments = m;
      best.w_opt = w_opt;
      best.energy_overhead = energy;
      best.time_overhead = time;
    }
  }
  if (!best.feasible) best.energy_overhead = 0.0;
  return best;
}

}  // namespace rexspeed::core
