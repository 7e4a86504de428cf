#include "rexspeed/core/exact_expectations.hpp"

#include <cmath>
#include <stdexcept>

namespace rexspeed::core {

namespace {

void check_args(const ModelParams& params, double work, double sigma1,
                double sigma2) {
  params.validate();
  if (!(work > 0.0)) {
    throw std::invalid_argument("expected value: work must be positive");
  }
  if (!(sigma1 > 0.0) || !(sigma2 > 0.0)) {
    throw std::invalid_argument("expected value: speeds must be positive");
  }
}

/// (1 − e^{−rate·x}) / rate, continuous at rate = 0 where it equals x.
double one_minus_exp_over(double x, double rate) {
  if (rate <= 0.0) return x;
  return -std::expm1(-rate * x) / rate;
}

/// (e^{rate·x} − 1) / rate, continuous at rate = 0 where it equals x.
double expm1_over(double x, double rate) {
  if (rate <= 0.0) return x;
  return std::expm1(rate * x) / rate;
}

struct PatternCosts {
  double lam_s;   // λs
  double lam_f;   // λf
  double c;       // C
  double r;       // R
  double v;       // V at full speed
};

/// Expected time of the single-speed tail (all re-executions at σ), with
/// both error sources: T₂ = C + R(e^{Λ} − 1) + e^{λs w/σ}·(e^{λf(w+V)/σ}−1)/λf,
/// where Λ = (λf(w+V)+λs w)/σ; the last factor degenerates to (w+V)/σ when
/// λf = 0.
double tail_time(const PatternCosts& p, double work, double sigma) {
  const double span = (work + p.v) / sigma;       // compute + verify
  const double exposure = work / sigma;           // silent-error window
  const double big = p.lam_f * span + p.lam_s * exposure;
  const double compute_term =
      std::exp(p.lam_s * exposure) * expm1_over(span, p.lam_f);
  return p.c + p.r * std::expm1(big) + compute_term;
}

/// Same recursion solved for energy: checkpoint/recovery terms carry
/// Pidle+Pio, compute terms carry Pidle+κσ³.
double tail_energy(const PatternCosts& p, double work, double sigma,
                   double compute_power, double io_power) {
  const double span = (work + p.v) / sigma;
  const double exposure = work / sigma;
  const double big = p.lam_f * span + p.lam_s * exposure;
  const double compute_term =
      std::exp(p.lam_s * exposure) * expm1_over(span, p.lam_f);
  return p.c * io_power + p.r * io_power * std::expm1(big) +
         compute_term * compute_power;
}

PatternCosts costs_of(const ModelParams& params) {
  return {.lam_s = params.lambda_silent,
          .lam_f = params.lambda_failstop,
          .c = params.checkpoint_s,
          .r = params.recovery_s,
          .v = params.verification_s};
}

double expected_time_unchecked(const ModelParams& params, double work,
                               double sigma1, double sigma2) {
  const PatternCosts p = costs_of(params);
  const double span1 = (work + p.v) / sigma1;
  const double exposure1 = work / sigma1;
  // Probability that the first attempt fails (either error source):
  // 1 − e^{−(λf·span1 + λs·exposure1)}.
  const double fail1 = -std::expm1(-(p.lam_f * span1 + p.lam_s * exposure1));
  // Expected productive-or-lost time of the first attempt:
  // (1 − e^{−λf·span1})/λf, which is span1 when λf = 0.
  const double first_attempt = one_minus_exp_over(span1, p.lam_f);
  const double tail = tail_time(p, work, sigma2);
  return first_attempt + fail1 * (p.r + tail) + (1.0 - fail1) * p.c;
}

double expected_energy_unchecked(const ModelParams& params, double work,
                                 double sigma1, double sigma2) {
  const PatternCosts p = costs_of(params);
  const double pc1 = params.compute_power(sigma1);
  const double pc2 = params.compute_power(sigma2);
  const double pio = params.io_total_power();
  const double span1 = (work + p.v) / sigma1;
  const double exposure1 = work / sigma1;
  const double fail1 = -std::expm1(-(p.lam_f * span1 + p.lam_s * exposure1));
  const double first_attempt = one_minus_exp_over(span1, p.lam_f);
  const double tail = tail_energy(p, work, sigma2, pc2, pio);
  return first_attempt * pc1 + fail1 * (p.r * pio + tail) +
         (1.0 - fail1) * p.c * pio;
}

}  // namespace

namespace detail {

double time_overhead_unchecked(const ModelParams& params, double work,
                               double sigma1, double sigma2) {
  return expected_time_unchecked(params, work, sigma1, sigma2) / work;
}

double energy_overhead_unchecked(const ModelParams& params, double work,
                                 double sigma1, double sigma2) {
  return expected_energy_unchecked(params, work, sigma1, sigma2) / work;
}

}  // namespace detail

double expected_time_single_speed_silent(const ModelParams& params,
                                         double work, double sigma) {
  check_args(params, work, sigma, sigma);
  const double lam = params.lambda_silent;
  const double growth = std::exp(lam * work / sigma);
  return params.checkpoint_s +
         growth * (work + params.verification_s) / sigma +
         (growth - 1.0) * params.recovery_s;
}

double expected_time(const ModelParams& params, double work, double sigma1,
                     double sigma2) {
  check_args(params, work, sigma1, sigma2);
  return expected_time_unchecked(params, work, sigma1, sigma2);
}

double expected_energy(const ModelParams& params, double work, double sigma1,
                       double sigma2) {
  check_args(params, work, sigma1, sigma2);
  return expected_energy_unchecked(params, work, sigma1, sigma2);
}

double time_overhead(const ModelParams& params, double work, double sigma1,
                     double sigma2) {
  check_args(params, work, sigma1, sigma2);
  return detail::time_overhead_unchecked(params, work, sigma1, sigma2);
}

double energy_overhead(const ModelParams& params, double work, double sigma1,
                       double sigma2) {
  check_args(params, work, sigma1, sigma2);
  return detail::energy_overhead_unchecked(params, work, sigma1, sigma2);
}

double expected_time_lost(double lambda_failstop, double duration) {
  if (!(lambda_failstop > 0.0)) {
    throw std::invalid_argument(
        "expected_time_lost: fail-stop rate must be positive");
  }
  if (!(duration > 0.0)) {
    throw std::invalid_argument(
        "expected_time_lost: duration must be positive");
  }
  return 1.0 / lambda_failstop -
         duration / std::expm1(lambda_failstop * duration);
}

namespace paper_forms {

double prop4_expected_time(const ModelParams& params, double work,
                           double sigma1, double sigma2) {
  check_args(params, work, sigma1, sigma2);
  const double lf = params.lambda_failstop;
  const double ls = params.lambda_silent;
  if (!(lf > 0.0)) {
    throw std::invalid_argument(
        "prop4_expected_time: requires a positive fail-stop rate (the "
        "printed form divides by lambda_f)");
  }
  const double c = params.checkpoint_s;
  const double r = params.recovery_s;
  const double v = params.verification_s;
  const double wv = work + v;
  const double fail1 = -std::expm1(-(lf * wv + ls * work) / sigma1);
  return c + fail1 * std::exp((lf * wv + ls * work) / sigma2) * r +
         fail1 * std::exp(ls * work / sigma2) * v / sigma2 +
         (1.0 / lf) * (-std::expm1(-lf * wv / sigma1)) +
         (1.0 / lf) * fail1 * std::exp(ls * work / sigma2) *
             std::expm1(lf * wv / sigma2);
}

double prop5_expected_energy(const ModelParams& params, double work,
                             double sigma1, double sigma2) {
  check_args(params, work, sigma1, sigma2);
  const double lf = params.lambda_failstop;
  const double ls = params.lambda_silent;
  if (!(lf > 0.0)) {
    throw std::invalid_argument(
        "prop5_expected_energy: requires a positive fail-stop rate (the "
        "printed form divides by lambda_f)");
  }
  const double c = params.checkpoint_s;
  const double r = params.recovery_s;
  const double v = params.verification_s;
  const double wv = work + v;
  const double pio = params.io_total_power();
  const double pc1 = params.compute_power(sigma1);
  const double pc2 = params.compute_power(sigma2);
  const double fail1 = -std::expm1(-(lf * wv + ls * work) / sigma1);
  return c * pio +
         fail1 * std::exp((lf * wv + ls * work) / sigma2) * r * pio +
         fail1 * std::exp(ls * work / sigma2) * (v / sigma2) * pc2 +
         (1.0 / lf) * fail1 * std::exp(ls * work / sigma2) *
             std::expm1(lf * wv / sigma2) * pc2 +
         (1.0 / lf) * (-std::expm1(-lf * wv / sigma1)) * pc1;
}

}  // namespace paper_forms

}  // namespace rexspeed::core
