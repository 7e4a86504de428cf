#pragma once

#include <vector>

#include "rexspeed/core/bicrit_solver.hpp"

namespace rexspeed::sim {

/// Checkpointing policy executed by the simulator: a pattern size plus a
/// per-attempt speed schedule. Attempt 0 is the first execution; attempts
/// beyond the schedule reuse its last speed, so {σ1, σ2} realizes the
/// paper's "first at σ1, every re-execution at σ2" model, and longer
/// vectors express multi-speed retry ladders (the paper's future-work
/// direction).
class ExecutionPolicy {
 public:
  /// `verification_segments` cuts each attempt into that many equal
  /// compute segments, each followed by its own verification (the
  /// interleaved patterns of core/interleaved.hpp); 1 is the paper's
  /// verify-then-checkpoint pattern.
  ExecutionPolicy(double pattern_work, std::vector<double> attempt_speeds,
                  unsigned verification_segments = 1);

  /// Paper model: first execution at σ1, re-executions at σ2.
  [[nodiscard]] static ExecutionPolicy two_speed(double pattern_work,
                                                 double sigma1,
                                                 double sigma2);

  /// Classical baseline: every attempt at σ.
  [[nodiscard]] static ExecutionPolicy single_speed(double pattern_work,
                                                    double sigma);

  /// Policy induced by a solver result (Wopt, σ1, σ2).
  [[nodiscard]] static ExecutionPolicy from_solution(
      const core::PairSolution& solution);

  /// Two-speed policy with interleaved verifications.
  [[nodiscard]] static ExecutionPolicy segmented(double pattern_work,
                                                 unsigned segments,
                                                 double sigma1,
                                                 double sigma2);

  /// Speed of the given (0-based) attempt.
  [[nodiscard]] double speed_for_attempt(std::size_t attempt) const noexcept;

  [[nodiscard]] double pattern_work() const noexcept { return pattern_work_; }
  [[nodiscard]] const std::vector<double>& attempt_speeds() const noexcept {
    return attempt_speeds_;
  }
  [[nodiscard]] unsigned verification_segments() const noexcept {
    return verification_segments_;
  }

 private:
  double pattern_work_;
  std::vector<double> attempt_speeds_;
  unsigned verification_segments_;
};

}  // namespace rexspeed::sim
