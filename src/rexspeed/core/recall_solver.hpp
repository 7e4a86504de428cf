#pragma once

#include "rexspeed/core/model_params.hpp"
#include "rexspeed/core/solver_backend.hpp"

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
/// r). The solver/backend below therefore optimize the first-order forms
/// over the recall-scaled parameters — bit-identical to the first-order
/// mode at r = 1 — while the exact evaluators above quantify the true
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

/// The analytical core of the recall mode: first-order optimization over
/// the recall-scaled rate plus the exact recall evaluators at the original
/// parameters. Construction is the complete preparation (the O(K²)
/// first-order expansions over the effective parameters); immutable and
/// shareable across threads afterwards, like every solver in core/.
class RecallSolver {
 public:
  /// Throws std::invalid_argument on invalid params or recall ∉ [0, 1].
  RecallSolver(ModelParams params, double recall);

  /// The original (unscaled) model parameters.
  [[nodiscard]] const ModelParams& params() const noexcept {
    return params_;
  }
  /// The recall-scaled parameters the optimization runs over.
  [[nodiscard]] const ModelParams& effective_params() const noexcept {
    return solver_.params();
  }
  [[nodiscard]] double recall() const noexcept { return recall_; }
  /// The first-order solver over the effective parameters.
  [[nodiscard]] const BiCritSolver& solver() const noexcept {
    return solver_;
  }

  /// First-order optimum at bound `rho` over the effective parameters.
  [[nodiscard]] BiCritSolution solve(
      double rho, SpeedPolicy policy = SpeedPolicy::kTwoSpeed) const;
  /// The min-ρ best-effort pattern over the effective parameters.
  [[nodiscard]] PairSolution min_rho_solution(SpeedPolicy policy) const;

  /// Exact recall expectations of a (W, σ1, σ2) pattern at the ORIGINAL
  /// parameters — the quantities the fault-injection simulator estimates.
  [[nodiscard]] double expected_time(double work, double sigma1,
                                     double sigma2) const;
  [[nodiscard]] double expected_energy(double work, double sigma1,
                                       double sigma2) const;
  [[nodiscard]] double corruption_probability(double work, double sigma1,
                                              double sigma2) const;

 private:
  ModelParams params_;
  double recall_;
  BiCritSolver solver_;  // over the effective (recall-scaled) parameters
};

/// The partial-recall backend (registry mode "recall"): a speed-pair
/// backend that contains a first-order ClosedFormBackend over the
/// recall-scaled parameters and forwards every solve to it — so at
/// recall = 1 (a bit-exact no-op scaling) it is bit-identical to the
/// first-order mode on every path, batched ρ grids included.
/// params() returns the ORIGINAL parameters (panel rebinds sweep the true
/// model axis; the scaling is re-applied inside rebind()).
class RecallBackend final : public SolverBackend {
 public:
  /// Throws std::invalid_argument on invalid params or recall ∉ [0, 1].
  RecallBackend(ModelParams params, double recall);

  [[nodiscard]] const char* name() const noexcept override;
  [[nodiscard]] const ModelParams& params() const noexcept override {
    return params_;
  }
  [[nodiscard]] const BackendCapabilities& capabilities()
      const noexcept override {
    return capabilities_;
  }
  [[nodiscard]] bool needs_prepare() const noexcept override {
    return false;
  }
  void prepare(const ParallelFor& parallel_build = {}) override;
  [[nodiscard]] Solution solve(double rho, SpeedPolicy policy,
                               bool min_rho_fallback) const override;
  [[nodiscard]] Solution solve_baseline(double rho,
                                        bool min_rho_fallback) const override;
  [[nodiscard]] Solution min_rho(SpeedPolicy policy) const override;
  [[nodiscard]] PairSolution solve_pair(double rho, std::size_t i,
                                        std::size_t j) const override;
  [[nodiscard]] BiCritSolution solve_report(
      double rho, SpeedPolicy policy) const override;
  [[nodiscard]] std::unique_ptr<SolverBackend> rebind(
      ModelParams params,
      const PairSeedTable* seeds = nullptr) const override;
  /// The delegate's batched ρ path; model axes use the reference loop.
  void solve_batch(SweepAxis axis, const double* xs, std::size_t count,
                   double panel_rho, bool min_rho_fallback,
                   PanelPoint* out) const override;
  [[nodiscard]] PanelPoint solve_panel_point_seeded(
      SweepAxis axis, double x, double panel_rho, bool min_rho_fallback,
      PairSeedTable* harvest) const override;

  [[nodiscard]] double recall() const noexcept { return recall_; }
  /// The recall-scaled parameters the contained first-order backend
  /// optimizes over.
  [[nodiscard]] const ModelParams& effective_params() const noexcept {
    return delegate_.params();
  }

 private:
  ModelParams params_;
  double recall_;
  ClosedFormBackend delegate_;  // first-order over the effective params
  BackendCapabilities capabilities_;
};

}  // namespace rexspeed::core
