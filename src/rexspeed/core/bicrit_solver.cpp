#include "rexspeed/core/bicrit_solver.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "rexspeed/core/exact_expectations.hpp"

namespace rexspeed::core {

PairExpansion PairExpansion::make(const ModelParams& params, double sigma1,
                                  double sigma2, int index1, int index2) {
  PairExpansion pair;
  pair.sigma1 = sigma1;
  pair.sigma2 = sigma2;
  pair.index1 = index1;
  pair.index2 = index2;
  pair.time_exp = time_expansion(params, sigma1, sigma2);
  pair.energy_exp = energy_expansion(params, sigma1, sigma2);
  pair.first_order_valid =
      pair.time_exp.y > 0.0 && pair.energy_exp.y > 0.0;
  pair.rho_min = rexspeed::core::rho_min(pair.time_exp);
  return pair;
}

PairSolution BiCritSolution::best_for_sigma1_index(std::size_t index) const {
  PairSolution row;
  row.sigma1_index = static_cast<int>(index);
  row.feasible = false;
  double best_energy = std::numeric_limits<double>::infinity();
  for (const auto& pair : pairs) {
    if (pair.sigma1_index != static_cast<int>(index)) continue;
    row.sigma1 = pair.sigma1;  // report the actual speed even when no
                               // second speed is feasible
    if (!pair.feasible) continue;
    if (pair.energy_overhead < best_energy) {
      best_energy = pair.energy_overhead;
      row = pair;
    }
  }
  return row;
}

PairSolution BiCritSolution::best_for_sigma1(double sigma1) const {
  // Resolve the requested speed to an index present in `pairs`, then
  // select by index — never by floating-point equality.
  int index = -1;
  double best_gap = std::numeric_limits<double>::infinity();
  for (const auto& pair : pairs) {
    if (pair.sigma1_index < 0) continue;
    const double gap = std::abs(pair.sigma1 - sigma1);
    if (gap < best_gap) {
      best_gap = gap;
      index = pair.sigma1_index;
    }
  }
  if (index < 0) {
    PairSolution row;
    row.sigma1 = sigma1;
    row.feasible = false;
    return row;
  }
  return best_for_sigma1_index(static_cast<std::size_t>(index));
}

namespace {

/// The cached pair (i, j), read out of its SoA slot — bit-identical to
/// PairExpansion::make: the scalar build evaluates the same expansion
/// bodies and the AVX2 build is bit-comparable to it.
PairExpansion table_pair_at(const ExpansionSoA& table, std::size_t i,
                            std::size_t j) {
  const std::size_t s = table.slot(i, j);
  PairExpansion pair;
  pair.sigma1 = table.sigma1[s];
  pair.sigma2 = table.sigma2[s];
  pair.index1 = static_cast<int>(i);
  pair.index2 = static_cast<int>(j);
  pair.time_exp = table.time_expansion(s);
  pair.energy_exp = table.energy_expansion(s);
  pair.first_order_valid = table.valid[s] != 0;
  pair.rho_min = table.rho_min[s];
  return pair;
}

}  // namespace

BiCritSolver::BiCritSolver(ModelParams params) : params_(std::move(params)) {
  params_.validate();
  soa_ = ExpansionSoA::build(params_);
}

BiCritSolver::BiCritSolver(ModelParams params, ExpansionSoA table)
    : params_(std::move(params)), soa_(std::move(table)) {
  params_.validate();
  if (soa_.k != params_.speeds.size()) {
    throw std::invalid_argument(
        "BiCritSolver: expansion table speed count mismatch");
  }
}

PairSolution BiCritSolver::solve_cached_pair(double rho,
                                             const PairExpansion& pair,
                                             EvalMode mode,
                                             double w_seed) const {
  if (!(rho > 0.0)) {
    throw std::invalid_argument("BiCritSolver: rho must be positive");
  }
  PairSolution sol;
  sol.sigma1 = pair.sigma1;
  sol.sigma2 = pair.sigma2;
  sol.sigma1_index = pair.index1;
  sol.sigma2_index = pair.index2;

  if (mode == EvalMode::kExactOptimize) {
    const ExactPairResult exact =
        optimize_exact_pair(params_, rho, pair.sigma1, pair.sigma2, w_seed,
                            numeric_options_);
    sol.feasible = exact.feasible;
    sol.first_order_valid = pair.first_order_valid;
    sol.rho_min = std::numeric_limits<double>::quiet_NaN();
    sol.w_opt = exact.w_opt;
    sol.w_energy = exact.w_opt;
    sol.w_min = exact.w_min;
    sol.w_max = exact.w_max;
    sol.energy_overhead = exact.energy_overhead;
    sol.time_overhead = exact.time_overhead;
    return sol;
  }

  sol.first_order_valid = pair.first_order_valid;
  sol.rho_min = pair.rho_min;
  if (!sol.first_order_valid) {
    // Outside the validity window of §5.2 the closed form is meaningless;
    // this pair only has an answer in kExactOptimize — served cheaply by
    // the cached ExactOptBackend (solver_backend.hpp), which engine
    // contexts build for exact-mode scenarios.
    sol.feasible = false;
    return sol;
  }

  const FeasibleInterval interval = feasible_interval(pair.time_exp, rho);
  if (!interval.feasible()) {
    sol.feasible = false;
    return sol;
  }
  sol.w_min = interval.w_min;
  sol.w_max = interval.w_max;

  // Eq. (5): unconstrained energy optimum; Eq. (4): clamp into [W1, W2].
  sol.w_energy = pair.energy_exp.has_interior_minimum()
                     ? pair.energy_exp.argmin()
                     : interval.w_max;
  if (!std::isfinite(sol.w_energy)) {
    // Error-free model: energy overhead decreases in W forever; take the
    // largest bounded pattern if any, else a nominal large pattern.
    sol.w_energy = std::isfinite(interval.w_max) ? interval.w_max
                                                 : numeric_options_.w_cap;
  }
  sol.w_opt = std::min(std::max(interval.w_min, sol.w_energy),
                       std::isfinite(interval.w_max)
                           ? interval.w_max
                           : std::numeric_limits<double>::max());
  sol.feasible = true;

  if (mode == EvalMode::kFirstOrder) {
    sol.energy_overhead = pair.energy_exp.evaluate(sol.w_opt);
    sol.time_overhead = pair.time_exp.evaluate(sol.w_opt);
  } else {  // kExactEvaluation
    sol.energy_overhead =
        energy_overhead(params_, sol.w_opt, pair.sigma1, pair.sigma2);
    sol.time_overhead =
        time_overhead(params_, sol.w_opt, pair.sigma1, pair.sigma2);
  }
  return sol;
}

PairSolution BiCritSolver::solve_pair_by_index(double rho, std::size_t i,
                                               std::size_t j,
                                               EvalMode mode) const {
  const std::size_t k = params_.speeds.size();
  if (i >= k || j >= k) {
    throw std::out_of_range("BiCritSolver: speed index out of range");
  }
  return solve_cached_pair(rho, table_pair_at(soa_, i, j), mode);
}

PairSolution BiCritSolver::solve_pair(double rho, double sigma1,
                                      double sigma2, EvalMode mode) const {
  // Hit the cache when both speeds are members of the speed set (bitwise
  // match: callers pass values read from ModelParams::speeds).
  const auto& speeds = params_.speeds;
  const auto it1 = std::find(speeds.begin(), speeds.end(), sigma1);
  const auto it2 = std::find(speeds.begin(), speeds.end(), sigma2);
  if (it1 != speeds.end() && it2 != speeds.end()) {
    return solve_pair_by_index(
        rho, static_cast<std::size_t>(it1 - speeds.begin()),
        static_cast<std::size_t>(it2 - speeds.begin()), mode);
  }
  return solve_cached_pair(rho, PairExpansion::make(params_, sigma1, sigma2),
                           mode);
}

PairSolution min_rho_solution(const ExpansionSoA& table,
                              SpeedPolicy policy) {
  PairSolution best;
  best.feasible = false;
  double best_rho = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < table.k; ++i) {
    for (std::size_t j = 0; j < table.k; ++j) {
      if (policy == SpeedPolicy::kSingleSpeed && i != j) continue;
      const PairExpansion pair = table_pair_at(table, i, j);
      if (!pair.first_order_valid) continue;
      if (pair.rho_min >= best_rho) continue;
      best_rho = pair.rho_min;
      best.feasible = true;
      best.first_order_valid = true;
      best.sigma1 = pair.sigma1;
      best.sigma2 = pair.sigma2;
      best.sigma1_index = pair.index1;
      best.sigma2_index = pair.index2;
      best.rho_min = pair.rho_min;
      best.w_opt = pair.time_exp.argmin();  // tangency pattern size
      best.w_energy = pair.energy_exp.argmin();
      best.w_min = best.w_opt;
      best.w_max = best.w_opt;
      best.time_overhead = pair.time_exp.evaluate(best.w_opt);
      best.energy_overhead = pair.energy_exp.evaluate(best.w_opt);
    }
  }
  return best;
}

PairSolution BiCritSolver::min_rho_solution(SpeedPolicy policy) const {
  return rexspeed::core::min_rho_solution(soa_, policy);
}

BiCritSolution BiCritSolver::solve(double rho, SpeedPolicy policy,
                                   EvalMode mode,
                                   const PairSeedTable* seeds) const {
  BiCritSolution solution;
  solution.pairs.reserve(soa_.count);
  double best_energy = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < soa_.k; ++i) {
    for (std::size_t j = 0; j < soa_.k; ++j) {
      if (policy == SpeedPolicy::kSingleSpeed && i != j) continue;
      const PairExpansion cached = table_pair_at(soa_, i, j);
      const double w_seed =
          (seeds != nullptr && mode == EvalMode::kExactOptimize)
              ? seeds->seed(cached.index1, cached.index2)
              : 0.0;
      PairSolution pair = solve_cached_pair(rho, cached, mode, w_seed);
      if (pair.feasible && pair.energy_overhead < best_energy) {
        best_energy = pair.energy_overhead;
        solution.best = pair;
        solution.feasible = true;
      }
      solution.pairs.push_back(std::move(pair));
    }
  }
  return solution;
}

}  // namespace rexspeed::core
