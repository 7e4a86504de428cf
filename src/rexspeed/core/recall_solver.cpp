#include "rexspeed/core/recall_solver.hpp"

#include <cmath>
#include <stdexcept>

namespace rexspeed::core {

namespace {

void check_recall(double recall) {
  if (!(recall >= 0.0) || recall > 1.0) {
    throw std::invalid_argument(
        "recall: verification recall must be in [0, 1]");
  }
}

void check_args(const ModelParams& params, double recall, double work,
                double sigma1, double sigma2) {
  params.validate();
  check_recall(recall);
  if (!(work > 0.0)) {
    throw std::invalid_argument("recall expectation: work must be positive");
  }
  if (!(sigma1 > 0.0) || !(sigma2 > 0.0)) {
    throw std::invalid_argument(
        "recall expectation: speeds must be positive");
  }
}

/// (1 − e^{−rate·x}) / rate, continuous at rate = 0 where it equals x
/// (same as exact_expectations.cpp — the expected elapsed time of an
/// attempt truncated by an Exp(rate) fail-stop).
double one_minus_exp_over(double x, double rate) {
  if (rate <= 0.0) return x;
  return -std::expm1(-rate * x) / rate;
}

/// Everything one attempt at speed σ contributes to the recursion.
struct AttemptStats {
  double duration;  ///< E[elapsed time] = (1 − e^{−λf·span})/λf
  double retry;     ///< q = p_f + (1 − p_f)·p_s·r
  double corrupt;   ///< (1 − p_f)·p_s·(1 − r): commits corrupted
};

AttemptStats attempt_stats(const ModelParams& params, double recall,
                           double work, double sigma) {
  const double span = (work + params.verification_s) / sigma;
  const double exposure = work / sigma;
  const double p_fail = -std::expm1(-params.lambda_failstop * span);
  const double p_silent = -std::expm1(-params.lambda_silent * exposure);
  AttemptStats stats;
  stats.duration = one_minus_exp_over(span, params.lambda_failstop);
  stats.retry = p_fail + (1.0 - p_fail) * p_silent * recall;
  stats.corrupt = (1.0 - p_fail) * p_silent * (1.0 - recall);
  return stats;
}

}  // namespace

ModelParams recall_effective_params(ModelParams params, double recall) {
  check_recall(recall);
  params.lambda_silent *= recall;
  return params;
}

double expected_time_recall(const ModelParams& params, double recall,
                            double work, double sigma1, double sigma2) {
  check_args(params, recall, work, sigma1, sigma2);
  const AttemptStats a1 = attempt_stats(params, recall, work, sigma1);
  const AttemptStats a2 = attempt_stats(params, recall, work, sigma2);
  const double c = params.checkpoint_s;
  const double r = params.recovery_s;
  // Tail recursion (all re-executions at σ2): T2 = A2 + q2(R + T2) +
  // (1 − q2)C, a geometric series over the retry probability q2.
  const double tail = (a2.duration + a2.retry * r) / (1.0 - a2.retry) + c;
  return a1.duration + a1.retry * (r + tail) + (1.0 - a1.retry) * c;
}

double expected_energy_recall(const ModelParams& params, double recall,
                              double work, double sigma1, double sigma2) {
  check_args(params, recall, work, sigma1, sigma2);
  const AttemptStats a1 = attempt_stats(params, recall, work, sigma1);
  const AttemptStats a2 = attempt_stats(params, recall, work, sigma2);
  const double pc1 = params.compute_power(sigma1);
  const double pc2 = params.compute_power(sigma2);
  const double pio = params.io_total_power();
  const double c = params.checkpoint_s;
  const double r = params.recovery_s;
  // Same recursion with compute time at Pidle + κσ³ and checkpoint /
  // recovery time at Pidle + Pio.
  const double tail = (a2.duration * pc2 + a2.retry * r * pio) /
                          (1.0 - a2.retry) +
                      c * pio;
  return a1.duration * pc1 + a1.retry * (r * pio + tail) +
         (1.0 - a1.retry) * c * pio;
}

double recall_corruption_probability(const ModelParams& params, double recall,
                                     double work, double sigma1,
                                     double sigma2) {
  check_args(params, recall, work, sigma1, sigma2);
  const AttemptStats a1 = attempt_stats(params, recall, work, sigma1);
  const AttemptStats a2 = attempt_stats(params, recall, work, sigma2);
  // The committing attempt is the first non-retried one: corrupt on the
  // first attempt, or after any geometric number of retries at σ2.
  return a1.corrupt + a1.retry * a2.corrupt / (1.0 - a2.retry);
}

}  // namespace rexspeed::core
