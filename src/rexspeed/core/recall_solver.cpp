#include "rexspeed/core/recall_solver.hpp"

#include <cmath>
#include <stdexcept>
#include <utility>

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

RecallSolver::RecallSolver(ModelParams params, double recall)
    : params_(params),
      recall_(recall),
      solver_(recall_effective_params(std::move(params), recall)) {
  params_.validate();
}

BiCritSolution RecallSolver::solve(double rho, SpeedPolicy policy) const {
  return solver_.solve(rho, policy, EvalMode::kFirstOrder);
}

PairSolution RecallSolver::min_rho_solution(SpeedPolicy policy) const {
  return solver_.min_rho_solution(policy);
}

double RecallSolver::expected_time(double work, double sigma1,
                                   double sigma2) const {
  return expected_time_recall(params_, recall_, work, sigma1, sigma2);
}

double RecallSolver::expected_energy(double work, double sigma1,
                                     double sigma2) const {
  return expected_energy_recall(params_, recall_, work, sigma1, sigma2);
}

double RecallSolver::corruption_probability(double work, double sigma1,
                                            double sigma2) const {
  return recall_corruption_probability(params_, recall_, work, sigma1,
                                       sigma2);
}

RecallBackend::RecallBackend(ModelParams params, double recall)
    : params_(params),
      recall_(recall),
      delegate_(recall_effective_params(std::move(params), recall),
                EvalMode::kFirstOrder) {
  params_.validate();
  capabilities_ = delegate_.capabilities();
  capabilities_.version = "recall-1";
  capabilities_.validity =
      "first-order window over the recall-scaled rate r*lambda_s; "
      "overheads count detected-error re-executions only — "
      "recall_corruption_probability quantifies the committed-corrupt "
      "risk a partial verification adds";
}

const char* RecallBackend::name() const noexcept { return "recall"; }

void RecallBackend::prepare(const ParallelFor& parallel_build) {
  delegate_.prepare(parallel_build);
}

Solution RecallBackend::solve(double rho, SpeedPolicy policy,
                              bool min_rho_fallback) const {
  return delegate_.solve(rho, policy, min_rho_fallback);
}

Solution RecallBackend::solve_baseline(double rho,
                                       bool min_rho_fallback) const {
  return delegate_.solve_baseline(rho, min_rho_fallback);
}

Solution RecallBackend::min_rho(SpeedPolicy policy) const {
  return delegate_.min_rho(policy);
}

PairSolution RecallBackend::solve_pair(double rho, std::size_t i,
                                       std::size_t j) const {
  return delegate_.solve_pair(rho, i, j);
}

BiCritSolution RecallBackend::solve_report(double rho,
                                           SpeedPolicy policy) const {
  return delegate_.solve_report(rho, policy);
}

std::unique_ptr<SolverBackend> RecallBackend::rebind(
    ModelParams params, const PairSeedTable* /*seeds*/) const {
  // Rebinds carry the ORIGINAL parameters (panel sweeps mutate the true
  // model axis); the recall scaling is re-applied by the new delegate.
  return std::make_unique<RecallBackend>(std::move(params), recall_);
}

void RecallBackend::solve_batch(SweepAxis axis, const double* xs,
                                std::size_t count, double panel_rho,
                                bool min_rho_fallback,
                                PanelPoint* out) const {
  if (axis == SweepAxis::kPerformanceBound) {
    delegate_.solve_batch(axis, xs, count, panel_rho, min_rho_fallback, out);
    return;
  }
  // A model axis applies to the ORIGINAL params and the scaling after it:
  // the delegate's batch would sweep the already-scaled params (a λ grid
  // would overwrite the scaled rate). The reference loop rebinds here.
  SolverBackend::solve_batch(axis, xs, count, panel_rho, min_rho_fallback,
                             out);
}

PanelPoint RecallBackend::solve_panel_point_seeded(
    SweepAxis axis, double x, double panel_rho, bool min_rho_fallback,
    PairSeedTable* harvest) const {
  return delegate_.solve_panel_point_seeded(axis, x, panel_rho,
                                            min_rho_fallback, harvest);
}

}  // namespace rexspeed::core
