#pragma once

#include "rexspeed/core/model_params.hpp"

namespace rexspeed::core {

/// Interleaved-verification patterns — the generalization the paper cites
/// as related work (§6, Benoit–Robert–Raina "Efficient checkpoint/
/// verification patterns"): the chunk W is cut into `segments` equal
/// pieces, each followed by a verification; the checkpoint still closes
/// the pattern. A silent error is then detected at the end of the segment
/// it struck, so only a prefix of the attempt is lost instead of the whole
/// pattern — at the price of `segments` verifications per attempt.
///
/// The paper's model is the special case segments = 1. The expectations
/// below are exact finite sums over the striking segment (silent errors
/// only, the setting of the original pattern work); re-executions run at
/// σ2 with the same segmented layout.

/// Expected time of one pattern with `segments` interleaved verifications.
/// Requires λf = 0 (throws otherwise: the segmented closed form is derived
/// for silent errors, matching the related work).
[[nodiscard]] double expected_time_interleaved(const ModelParams& params,
                                               double work,
                                               unsigned segments,
                                               double sigma1, double sigma2);

/// Expected energy of one pattern with `segments` interleaved
/// verifications.
[[nodiscard]] double expected_energy_interleaved(const ModelParams& params,
                                                 double work,
                                                 unsigned segments,
                                                 double sigma1,
                                                 double sigma2);

namespace detail {

/// The expression bodies of expected_time_interleaved /
/// expected_energy_interleaved without their argument checks: `params`
/// must already be validated with λf = 0, `work` positive, `segments` ≥ 1
/// and both speeds positive. The public functions and InterleavedBackend
/// (which validates once, at construction, then evaluates these across its
/// cache build and tight-bound bisections) both call these, so the two
/// agree bit for bit by construction.
[[nodiscard]] double expected_time_interleaved_unchecked(
    const ModelParams& params, double work, unsigned segments, double sigma1,
    double sigma2);
[[nodiscard]] double expected_energy_interleaved_unchecked(
    const ModelParams& params, double work, unsigned segments, double sigma1,
    double sigma2);

}  // namespace detail

/// Best segmented pattern under the BiCrit rule: for each segment count in
/// [1, max_segments], numerically optimize W for minimum energy overhead
/// subject to T/W ≤ rho, then keep the best count.
struct InterleavedSolution {
  bool feasible = false;
  unsigned segments = 1;
  double sigma1 = 0.0;
  double sigma2 = 0.0;
  double w_opt = 0.0;
  double energy_overhead = 0.0;
  double time_overhead = 0.0;
};

[[nodiscard]] InterleavedSolution optimize_interleaved(
    const ModelParams& params, double rho, double sigma1, double sigma2,
    unsigned max_segments = 16);

/// Everything about one (σ1, σ2, m) combination that depends only on the
/// model parameters — not on the performance bound ρ: one entry of the
/// cache core::InterleavedBackend::prepare() builds. Both overhead curves
/// T(W)/W and E(W)/W are unimodal in W, so their unconstrained minima pin
/// down every constrained solve: a bound below `rho_min` is infeasible,
/// a bound admitting `w_energy` is solved by the cached optimum outright,
/// and anything in between reduces to locating one feasibility boundary.
struct InterleavedExpansion {
  double sigma1 = 0.0;
  double sigma2 = 0.0;
  int index1 = -1;  ///< positions in ModelParams::speeds
  int index2 = -1;
  unsigned segments = 1;
  double w_time = 0.0;      ///< unconstrained minimizer of T(W)/W
  double rho_min = 0.0;     ///< T(w_time)/w_time — feasibility threshold
  double w_energy = 0.0;    ///< unconstrained minimizer of E(W)/W
  double energy_min = 0.0;  ///< E(w_energy)/w_energy
  double time_at_we = 0.0;  ///< T(w_energy)/w_energy
};

}  // namespace rexspeed::core
