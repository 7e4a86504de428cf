#pragma once

#include "rexspeed/core/model_params.hpp"

namespace rexspeed::core {

/// Partial verification recall: each verification detects a silent error
/// only with probability r (the partial verifications of the paper's
/// related work [Cavelan et al., ICPP'15]; r = 1 is the paper's guaranteed
/// verification). A missed error is committed by the following checkpoint
/// and silently corrupts the result — the simulator executes this
/// (SimulatorOptions::verification_recall); the evaluators below are the
/// matching closed forms.
///
/// Exact expectations: per attempt at speed σ the pattern spans
/// (W+V)/σ seconds with the silent-error window W/σ inside it. With
/// p_f = P(fail-stop strikes the span) and p_s = P(silent error strikes
/// the window), an attempt is *retried* with probability
///   q = p_f + (1 − p_f)·p_s·r
/// (fail-stop, or a detected silent error) and otherwise commits — cleanly
/// with probability (1 − p_f)(1 − p_s), corrupted with probability
///   (1 − p_f)·p_s·(1 − r).
/// Solving the same recursion as exact_expectations.cpp (re-executions all
/// at σ2, geometric over q2) gives the expected time/energy until a
/// checkpoint commits, and the committed-corrupt probability as the
/// geometric mix of detected and missed patterns. At r = 1 every form
/// reduces algebraically to its exact_expectations counterpart.
///
/// First-order optimization: to the paper's §5.2 expansion order a partial
/// verification is equivalent to scaling the silent-error rate to r·λs
/// (only *detected* errors cost a re-execution, and detections thin λs by
/// r). The recall mode (a core::ClosedFormBackend over
/// recall_effective_params) therefore optimizes the first-order forms over
/// the recall-scaled parameters — bit-identical to the first-order mode at
/// r = 1 — while the exact evaluators below quantify the true
/// (recall-aware) overheads and the corruption risk the thinning hides.

/// `params` with the silent-error rate scaled to recall·λs — the
/// first-order-equivalent parameter bundle of a partial verification.
/// Throws std::invalid_argument when recall is outside [0, 1].
[[nodiscard]] ModelParams recall_effective_params(ModelParams params,
                                                 double recall);

/// Exact expected time of one pattern under partial recall; reduces to
/// expected_time() at recall = 1.
[[nodiscard]] double expected_time_recall(const ModelParams& params,
                                          double recall, double work,
                                          double sigma1, double sigma2);

/// Exact expected energy of one pattern under partial recall; reduces to
/// expected_energy() at recall = 1.
[[nodiscard]] double expected_energy_recall(const ModelParams& params,
                                            double recall, double work,
                                            double sigma1, double sigma2);

/// Probability that the checkpoint committing one pattern carries an
/// undetected silent corruption (0 at recall = 1; the simulator's
/// corrupted-checkpoint ratio estimates this).
[[nodiscard]] double recall_corruption_probability(const ModelParams& params,
                                                   double recall, double work,
                                                   double sigma1,
                                                   double sigma2);

}  // namespace rexspeed::core
