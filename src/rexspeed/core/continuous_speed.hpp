#pragma once

#include "rexspeed/core/model_params.hpp"
#include "rexspeed/core/numeric_optimizer.hpp"

namespace rexspeed::core {

/// Continuous-speed relaxation of BiCrit: instead of restricting (σ1, σ2)
/// to the processor's discrete DVFS ladder, optimize over the full
/// rectangle [σ_min, σ_max]². The paper's model never needs this (real
/// processors expose a handful of operating points), but the relaxation
/// bounds from below what *any* ladder could achieve — the gap to the
/// discrete optimum is the price of DVFS granularity
/// (`ContinuousSpeed.NeverWorseThanDiscreteOptimum` holds the bound).
///
/// Implementation: Nelder–Mead over (σ1, σ2) with the exact per-pair
/// solution (optimize_exact_pair) as the inner objective; infeasible pairs
/// are assigned +inf. The objective is piecewise-smooth and unimodal in
/// practice; multi-start from the discrete optimum plus the rectangle
/// corners guards against local traps.
struct ContinuousSolution {
  bool feasible = false;
  double sigma1 = 0.0;
  double sigma2 = 0.0;
  double w_opt = 0.0;
  double energy_overhead = 0.0;
  double time_overhead = 0.0;
};

struct ContinuousOptions {
  /// Speed bounds; defaults (0 = derive) use the params' speed set range.
  double sigma_min = 0.0;
  double sigma_max = 0.0;
  /// Nelder–Mead iteration cap and simplex convergence tolerance.
  int max_iterations = 400;
  double tolerance = 1e-7;
  NumericOptions inner;
};

/// Solves the relaxed BiCrit problem. Throws std::invalid_argument on a
/// non-positive rho or an empty speed range.
[[nodiscard]] ContinuousSolution solve_continuous(
    const ModelParams& params, double rho,
    const ContinuousOptions& options = {});

}  // namespace rexspeed::core
