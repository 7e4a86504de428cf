#include "rexspeed/core/solver_backend.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <stdexcept>
#include <utility>

#include "rexspeed/core/exact_expectations.hpp"
#include "rexspeed/core/first_order.hpp"
#include "rexspeed/core/kernels/kernel_dispatch.hpp"
#include "rexspeed/core/numeric_optimizer.hpp"
#include "rexspeed/core/recall_solver.hpp"

namespace rexspeed::core {

Solution Solution::from_pair(PairSolution solution, bool used_fallback) {
  Solution out;
  out.payload_ = solution;
  out.used_fallback = used_fallback;
  return out;
}

Solution Solution::from_interleaved(InterleavedSolution solution) {
  Solution out;
  out.payload_ = solution;
  return out;
}

void Solution::throw_wrong_kind() const {
  throw std::logic_error(kind() == SolutionKind::kPair
                             ? "Solution: interleaved() on a pair solution"
                             : "Solution: pair() on an interleaved solution");
}

double PanelPoint::energy_saving() const noexcept {
  if (!primary.feasible() || !baseline.feasible() ||
      !(baseline.energy_overhead() > 0.0)) {
    return 0.0;
  }
  return 1.0 - primary.energy_overhead() / baseline.energy_overhead();
}

bool BackendCapabilities::supports(SweepAxis axis) const noexcept {
  return std::find(axes.begin(), axes.end(), axis) != axes.end();
}

bool BackendCapabilities::shares_panel_solver(SweepAxis axis) const noexcept {
  return std::find(shared_axes.begin(), shared_axes.end(), axis) !=
         shared_axes.end();
}

Solution SolverBackend::solve_segments(double /*rho*/,
                                       unsigned /*segments*/) const {
  throw std::logic_error(std::string("SolverBackend: backend '") + name() +
                         "' does not solve pinned segment counts (only "
                         "backends advertising the segments axis do)");
}

PairSolution SolverBackend::solve_pair(double /*rho*/, std::size_t /*i*/,
                                       std::size_t /*j*/) const {
  throw std::logic_error(std::string("SolverBackend: backend '") + name() +
                         "' has no per-pair solve (capabilities().pair_table "
                         "is false)");
}

BiCritSolution SolverBackend::solve_report(double /*rho*/,
                                           SpeedPolicy /*policy*/) const {
  throw std::logic_error(std::string("SolverBackend: backend '") + name() +
                         "' has no speed-pair table (capabilities()."
                         "pair_table is false)");
}

PanelPoint SolverBackend::solve_panel_point(SweepAxis axis, double x,
                                            double panel_rho,
                                            bool min_rho_fallback) const {
  PanelPoint point;
  point.x = x;
  if (axis == SweepAxis::kSegments) {
    // x IS the pinned count; the panel's own bound applies throughout.
    const auto m = static_cast<unsigned>(std::floor(x + 0.5));
    point.primary = solve_segments(panel_rho, m);
    point.baseline = solve_baseline(panel_rho, min_rho_fallback);
    return point;
  }
  const double rho =
      axis == SweepAxis::kPerformanceBound ? x : panel_rho;
  point.primary = solve(rho, SpeedPolicy::kTwoSpeed, min_rho_fallback);
  point.baseline = solve_baseline(rho, min_rho_fallback);
  return point;
}

void SolverBackend::solve_batch(SweepAxis axis, const double* xs,
                                std::size_t count, double panel_rho,
                                bool min_rho_fallback,
                                PanelPoint* out) const {
  // The reference semantics of every batched override: the per-point
  // kernel, off this backend where one instance serves the panel and off
  // a per-point rebind where the swept value changes the model.
  const bool shared = capabilities().shares_panel_solver(axis);
  for (std::size_t i = 0; i < count; ++i) {
    if (shared) {
      out[i] = solve_panel_point(axis, xs[i], panel_rho, min_rho_fallback);
      continue;
    }
    const std::unique_ptr<SolverBackend> point =
        rebind(apply_parameter(params(), axis, xs[i]));
    point->prepare();
    out[i] = point->solve_panel_point(axis, xs[i], panel_rho,
                                      min_rho_fallback);
  }
}

PanelPoint SolverBackend::solve_panel_point_seeded(
    SweepAxis axis, double x, double panel_rho, bool min_rho_fallback,
    PairSeedTable* /*harvest*/) const {
  // Backends without a warm-start chain have nothing to harvest.
  return solve_panel_point(axis, x, panel_rho, min_rho_fallback);
}

namespace {

/// The six figure axes in composite order — what every pair backend
/// sweeps.
std::vector<SweepAxis> pair_axes() {
  return {SweepAxis::kCheckpointTime, SweepAxis::kVerificationTime,
          SweepAxis::kErrorRate,      SweepAxis::kPerformanceBound,
          SweepAxis::kIdlePower,      SweepAxis::kIoPower};
}

/// The fallback step every pair backend's solve shares: `best`, or the
/// min-ρ `fallback` (with used_fallback set) when `best` is infeasible,
/// `min_rho_fallback` asks for it and `fallback` is feasible.
Solution pair_or_fallback(PairSolution best, const PairSolution& fallback,
                          bool min_rho_fallback) {
  if (!best.feasible && min_rho_fallback && fallback.feasible) {
    return Solution::from_pair(fallback, /*used_fallback=*/true);
  }
  return Solution::from_pair(std::move(best));
}

}  // namespace

// ---------------------------------------------------------------------
// ClosedFormBackend
// ---------------------------------------------------------------------

ClosedFormBackend::ClosedFormBackend(ModelParams params, EvalMode mode,
                                     const PairSeedTable* seeds)
    : solver_(std::move(params)), mode_(mode) {
  if (seeds != nullptr && mode_ == EvalMode::kExactOptimize) {
    // Only the numeric mode brackets anything a seed could steer; holding
    // seeds in other modes would just misleadingly advertise state.
    seeds_ = *seeds;
  }
  capabilities_.kind = SolutionKind::kPair;
  capabilities_.axes = pair_axes();
  // ρ sweeps leave the model untouched, so one solver serves the panel;
  // every other axis rebuilds the model per point (rebind).
  capabilities_.shared_axes = {SweepAxis::kPerformanceBound};
  capabilities_.pair_table = true;
  capabilities_.min_rho_fallback = true;
  capabilities_.version = "cf-1";
  switch (mode_) {
    case EvalMode::kFirstOrder:
      capabilities_.cost_weight = 1.0;
      capabilities_.validity =
          "first-order closed forms; meaningful inside the paper's 5.2 "
          "validity window (sigma2 <= 2 sigma1 (1 + s/f))";
      break;
    case EvalMode::kExactEvaluation:
      capabilities_.cost_weight = 2.0;
      capabilities_.validity =
          "Theorem 1 pattern size, overheads re-evaluated with the exact "
          "expectations; pattern choice still first-order";
      break;
    case EvalMode::kExactOptimize:
      capabilities_.cost_weight = 6.0;
      // The per-bound bracketing accepts per-pair seeds, so model-axis
      // panels chain warm starts along their grid.
      capabilities_.warm_start_chain = true;
      capabilities_.validity =
          "full per-bound numeric optimization of the exact model; valid "
          "for any error rates (prefer the cached exact-opt backend for "
          "repeated bounds)";
      break;
  }
}

ClosedFormBackend::ClosedFormBackend(ModelParams params, double recall)
    : ClosedFormBackend(recall_effective_params(params, recall),
                        EvalMode::kFirstOrder) {
  params.validate();
  recall_ = Recall{recall, std::move(params)};
  capabilities_.version = "recall-1";
  capabilities_.validity =
      "first-order window over the recall-scaled rate r*lambda_s; "
      "overheads count detected-error re-executions only — "
      "recall_corruption_probability quantifies the committed-corrupt "
      "risk a partial verification adds";
}

const char* to_mode_name(EvalMode mode) noexcept {
  switch (mode) {
    case EvalMode::kFirstOrder:
      return "first-order";
    case EvalMode::kExactEvaluation:
      return "exact-eval";
    case EvalMode::kExactOptimize:
      return "exact-opt";
  }
  return "first-order";
}

const char* ClosedFormBackend::name() const noexcept {
  return recall_ ? "recall" : to_mode_name(mode_);
}

void ClosedFormBackend::prepare(const ParallelFor& /*parallel_build*/) {
  // Construction already paid the O(K²) expansions — nothing deferred.
}

Solution ClosedFormBackend::solve(double rho, SpeedPolicy policy,
                                  bool min_rho_fallback) const {
  // The fallback is derived on demand, only for infeasible bounds — the
  // common feasible point never pays for it. min_rho_solution is a pure
  // const read of the cached expansions, so sharing one backend across
  // workers stays safe.
  PairSolution best =
      solver_.solve(rho, policy, mode_, seeds_.empty() ? nullptr : &seeds_)
          .best;
  if (!best.feasible && min_rho_fallback) {
    PairSolution fallback = solver_.min_rho_solution(policy);
    if (fallback.feasible) {
      return Solution::from_pair(std::move(fallback),
                                 /*used_fallback=*/true);
    }
  }
  return Solution::from_pair(std::move(best));
}

Solution ClosedFormBackend::solve_baseline(double rho,
                                           bool min_rho_fallback) const {
  return solve(rho, SpeedPolicy::kSingleSpeed, min_rho_fallback);
}

Solution ClosedFormBackend::min_rho(SpeedPolicy policy) const {
  return Solution::from_pair(solver_.min_rho_solution(policy));
}

PairSolution ClosedFormBackend::solve_pair(double rho, std::size_t i,
                                           std::size_t j) const {
  return solver_.solve_pair_by_index(rho, i, j, mode_);
}

BiCritSolution ClosedFormBackend::solve_report(double rho,
                                               SpeedPolicy policy) const {
  return solver_.solve(rho, policy, mode_,
                       seeds_.empty() ? nullptr : &seeds_);
}

std::unique_ptr<SolverBackend> ClosedFormBackend::rebind(
    ModelParams params, const PairSeedTable* seeds) const {
  if (recall_) {
    // The recall mode has no warm-start chain; the scaling is re-applied
    // to the rebound (original) params.
    return std::make_unique<ClosedFormBackend>(std::move(params),
                                               recall_->recall);
  }
  return std::make_unique<ClosedFormBackend>(std::move(params), mode_,
                                             seeds);
}

ModelParams ClosedFormBackend::solved_params(ModelParams params) const {
  if (!recall_) return params;
  // The checks of the recall rebind: the recall (here), the original
  // params (here) and the scaled ones (inside ExpansionSoA::rebuild).
  ModelParams scaled = recall_effective_params(params, recall_->recall);
  params.validate();
  return scaled;
}

namespace {

/// Scratch of one batch: the outputs of one kernels::eval_pairs pass,
/// reused across its grid points, and the table's min-ρ fallback per
/// policy (two-speed, single-speed), derived on first use only — a point
/// that finds a feasible pair never pays for it. Clear `fallbacks`
/// whenever the table is rewritten: the fallback depends on its params.
struct BatchScratch {
  explicit BatchScratch(std::size_t padded)
      : w_opt(padded),
        w_min(padded),
        w_max(padded),
        energy(padded),
        feasible(padded) {}
  AlignedDoubles w_opt, w_min, w_max, energy;
  std::vector<unsigned char> feasible;
  std::optional<Solution> fallbacks[2];
};

/// One first-order panel point off a built table at bound `rho`: one
/// eval_pairs pass answers both policies. Winner selection is in-order
/// with the strict < of BiCritSolver::solve, and the winner is a pure
/// read-out of the pass — every field is the expression
/// solve_cached_pair evaluates on the same inputs (the kernel arrays are
/// bit-identical to its intermediates by the eval_pairs contract) — so
/// the point matches the pointwise path bit for bit and no pair is
/// solved twice.
PanelPoint first_order_point(const ExpansionSoA& table, double x,
                             double rho, double w_cap, bool min_rho_fallback,
                             BatchScratch& scratch) {
  kernels::eval_pairs(table, rho, w_cap, scratch.w_opt.data(),
                      scratch.w_min.data(), scratch.w_max.data(),
                      scratch.energy.data(), scratch.feasible.data());
  const std::size_t k = table.k;
  std::size_t best_two = table.count;
  std::size_t best_single = table.count;
  double energy_two = std::numeric_limits<double>::infinity();
  double energy_single = std::numeric_limits<double>::infinity();
  for (std::size_t s = 0; s < table.count; ++s) {
    if (scratch.feasible[s] != 0 && scratch.energy[s] < energy_two) {
      energy_two = scratch.energy[s];
      best_two = s;
    }
  }
  // Single-speed candidates are the diagonal slots i·(K+1); walking them
  // in ascending order visits the same slots with the same strict < as
  // the kSingleSpeed scan.
  for (std::size_t i = 0; i < k; ++i) {
    const std::size_t s = i * (k + 1);
    if (scratch.feasible[s] != 0 && scratch.energy[s] < energy_single) {
      energy_single = scratch.energy[s];
      best_single = s;
    }
  }
  const auto winner = [&](std::size_t slot, SpeedPolicy policy) {
    if (slot >= table.count) {
      // What solve() returns when no pair is feasible under `policy`.
      std::optional<Solution>& fallback =
          scratch.fallbacks[policy == SpeedPolicy::kSingleSpeed ? 1 : 0];
      if (!fallback) {
        fallback = min_rho_fallback
                       ? pair_or_fallback(
                             PairSolution{}, min_rho_solution(table, policy),
                             true)
                       : Solution::from_pair(PairSolution{});
      }
      return *fallback;
    }
    PairSolution sol;
    sol.sigma1 = table.sigma1[slot];
    sol.sigma2 = table.sigma2[slot];
    sol.sigma1_index = static_cast<int>(slot / k);
    sol.sigma2_index = static_cast<int>(slot % k);
    sol.feasible = true;  // winners come from the feasible scan above
    sol.first_order_valid = true;  // feasible ⇒ valid (eval gates on it)
    sol.rho_min = table.rho_min[slot];
    sol.w_opt = scratch.w_opt[slot];
    sol.w_min = scratch.w_min[slot];
    sol.w_max = scratch.w_max[slot];
    // w_energy with solve_cached_pair's finite fallbacks: the cached `we`
    // column is +inf exactly when there is no interior minimum, and both
    // the no-minimum and the non-finite-argmin branches resolve to
    // finite(w_max) ? w_max : w_cap — one isfinite covers them all.
    sol.w_energy = std::isfinite(table.we[slot])
                       ? table.we[slot]
                       : (std::isfinite(sol.w_max) ? sol.w_max : w_cap);
    sol.energy_overhead = scratch.energy[slot];
    sol.time_overhead = table.time_expansion(slot).evaluate(sol.w_opt);
    return Solution::from_pair(sol);
  };
  PanelPoint point;
  point.x = x;
  point.primary = winner(best_two, SpeedPolicy::kTwoSpeed);
  point.baseline = winner(best_single, SpeedPolicy::kSingleSpeed);
  return point;
}

}  // namespace

void ClosedFormBackend::solve_batch(SweepAxis axis, const double* xs,
                                    std::size_t count, double panel_rho,
                                    bool min_rho_fallback,
                                    PanelPoint* out) const {
  if (mode_ != EvalMode::kFirstOrder || !capabilities_.supports(axis)) {
    // Only the first-order evaluation is expressible as a pure SoA sweep;
    // the exact-evaluation/optimization modes keep the reference loop.
    SolverBackend::solve_batch(axis, xs, count, panel_rho, min_rho_fallback,
                               out);
    return;
  }
  const double w_cap = solver_.numeric_options().w_cap;
  BatchScratch scratch(solver_.expansion_table().padded);
  if (axis == SweepAxis::kPerformanceBound) {
    // The min-ρ fallback is ρ-independent: one lazily derived copy per
    // policy serves the whole run.
    for (std::size_t p = 0; p < count; ++p) {
      out[p] = first_order_point(solver_.expansion_table(), xs[p], xs[p],
                                 w_cap, min_rho_fallback, scratch);
    }
    return;
  }
  // A model axis changes the params at every point: one scratch table is
  // rewritten in place per point (validating that point's params, like
  // the reference rebind), and the fallback comes from that point's own
  // table. The axis applies to params() — the original model in the
  // recall mode, scaled after it. The swept axes never touch the speed
  // set, so the scratch's size holds throughout.
  ExpansionSoA table;
  for (std::size_t p = 0; p < count; ++p) {
    table.rebuild(solved_params(apply_parameter(params(), axis, xs[p])),
                  kernels::active_ops());
    scratch.fallbacks[0].reset();
    scratch.fallbacks[1].reset();
    out[p] = first_order_point(table, xs[p], panel_rho, w_cap,
                               min_rho_fallback, scratch);
  }
}

PanelPoint ClosedFormBackend::solve_panel_point_seeded(
    SweepAxis axis, double x, double panel_rho, bool min_rho_fallback,
    PairSeedTable* harvest) const {
  if (axis == SweepAxis::kSegments) {
    return solve_panel_point(axis, x, panel_rho, min_rho_fallback);
  }
  const double rho = axis == SweepAxis::kPerformanceBound ? x : panel_rho;
  // ONE report serves both policies and the harvest: every pair is solved
  // once (with this backend's seeds, when chained). The single-speed
  // baseline is the in-order diagonal scan of the same table — identical
  // candidates and the same strict-< selection as a second kSingleSpeed
  // solve, so the same bits at half the pair solves.
  const BiCritSolution report = solve_report(rho, SpeedPolicy::kTwoSpeed);
  PanelPoint point;
  point.x = x;
  point.primary = pair_or_fallback(
      report.best, solver_.min_rho_solution(SpeedPolicy::kTwoSpeed),
      min_rho_fallback);
  PairSolution single;
  double best_energy = std::numeric_limits<double>::infinity();
  for (const PairSolution& pair : report.pairs) {
    if (pair.sigma1_index != pair.sigma2_index) continue;
    if (pair.feasible && pair.energy_overhead < best_energy) {
      best_energy = pair.energy_overhead;
      single = pair;
    }
  }
  point.baseline = pair_or_fallback(
      std::move(single), solver_.min_rho_solution(SpeedPolicy::kSingleSpeed),
      min_rho_fallback);
  if (harvest != nullptr) {
    const std::size_t k = solver_.params().speeds.size();
    harvest->k = k;
    harvest->w_opt.assign(k * k, 0.0);
    for (const PairSolution& pair : report.pairs) {
      if (pair.feasible && pair.sigma1_index >= 0 && pair.sigma2_index >= 0) {
        harvest->w_opt[static_cast<std::size_t>(pair.sigma1_index) * k +
                       static_cast<std::size_t>(pair.sigma2_index)] =
            pair.w_opt;
      }
    }
  }
  return point;
}

// ---------------------------------------------------------------------
// ExactOptBackend
// ---------------------------------------------------------------------

namespace {

/// The pair-invariant exact curve structure of the speed pair at slot
/// (i, j) of a prebuilt SoA table: the table's first-order expansions
/// supply the warm-start seeds and the validity flag, so only the two
/// warm-started 1-D minimizations plus three curve evaluations remain per
/// pair. The exact-opt helpers here evaluate the curves unchecked:
/// ExactOptBackend validates `params` once, in its constructor.
ExactExpansion make_expansion(const ModelParams& params,
                              const ExpansionSoA& table, std::size_t i,
                              std::size_t j) {
  // Warm-start seeds: inside the §5.2 validity window the closed-form
  // argmins √(z/y) land within O(λW) of the exact optima, so the numeric
  // bracket starts there instead of growing from W = 1. A seed of 0 (no
  // interior closed-form minimum) falls back to the cold-start bracket.
  const std::size_t slot = table.slot(i, j);
  ExactExpansion pair;
  pair.sigma1 = table.sigma1[slot];
  pair.sigma2 = table.sigma2[slot];
  pair.index1 = static_cast<int>(i);
  pair.index2 = static_cast<int>(j);
  const OverheadExpansion time_exp = table.time_expansion(slot);
  const OverheadExpansion energy_exp = table.energy_expansion(slot);
  pair.first_order_valid = table.valid[slot] != 0;
  const double time_seed =
      time_exp.has_interior_minimum() ? time_exp.argmin() : 0.0;
  const double energy_seed =
      energy_exp.has_interior_minimum() ? energy_exp.argmin() : 0.0;

  const auto time_per_work = [&](double w) {
    return detail::time_overhead_unchecked(params, w, pair.sigma1,
                                           pair.sigma2);
  };
  const auto energy_per_work = [&](double w) {
    return detail::energy_overhead_unchecked(params, w, pair.sigma1,
                                             pair.sigma2);
  };
  pair.w_time = minimize_unimodal_overhead(time_per_work, time_seed, {});
  pair.rho_min = time_per_work(pair.w_time);
  pair.w_energy =
      minimize_unimodal_overhead(energy_per_work, energy_seed, {});
  pair.energy_min = energy_per_work(pair.w_energy);
  pair.time_at_we = time_per_work(pair.w_energy);
  return pair;
}

PairSolution base_solution(const ExactExpansion& pair) {
  PairSolution sol;
  sol.sigma1 = pair.sigma1;
  sol.sigma2 = pair.sigma2;
  sol.sigma1_index = pair.index1;
  sol.sigma2_index = pair.index2;
  sol.first_order_valid = pair.first_order_valid;
  sol.rho_min = pair.rho_min;
  sol.w_energy = pair.w_energy;
  return sol;
}

PairSolution lookup_solution(const ExactExpansion& pair) {
  // The unconstrained energy optimum already satisfies the bound: the
  // solve is a pure cache lookup (the common case of loose-ρ grid
  // points, and the reason one backend serves a whole sweep).
  PairSolution sol = base_solution(pair);
  sol.feasible = true;
  sol.w_opt = pair.w_energy;
  sol.w_min = std::min(pair.w_time, pair.w_energy);
  sol.w_max = std::max(pair.w_time, pair.w_energy);
  sol.energy_overhead = pair.energy_min;
  sol.time_overhead = pair.time_at_we;
  return sol;
}

PairSolution tight_solution(const ModelParams& params, double rho,
                            const ExactExpansion& pair) {
  // The unconstrained energy optimum violates the bound, so the
  // constrained optimum sits on the feasibility boundary between w_time
  // (feasible) and w_energy (not): both curves are unimodal, so energy
  // only decreases toward w_energy and the boundary nearest it wins.
  // Locate it with the shared boundary bisection (the same routine
  // optimize_exact_pair uses) — the single warm-started bisection a
  // tight-bound point costs.
  const auto time_per_work = [&](double w) {
    return detail::time_overhead_unchecked(params, w, pair.sigma1,
                                           pair.sigma2);
  };
  const double w_opt =
      bisect_boundary(time_per_work, rho, pair.w_time, pair.w_energy);
  PairSolution sol = base_solution(pair);
  sol.feasible = true;
  sol.w_opt = w_opt;
  sol.w_min = std::min(pair.w_time, w_opt);
  sol.w_max = std::max(pair.w_time, w_opt);
  sol.energy_overhead = detail::energy_overhead_unchecked(
      params, w_opt, pair.sigma1, pair.sigma2);
  sol.time_overhead = time_per_work(w_opt);
  return sol;
}

PairSolution solve_cached(const ModelParams& params, double rho,
                          const ExactExpansion& pair) {
  if (!(pair.rho_min <= rho)) {
    return base_solution(pair);  // bound below the exact floor
  }
  if (pair.time_at_we <= rho) return lookup_solution(pair);
  return tight_solution(params, rho, pair);
}

/// The exact-opt scan at `rho` under `policy`: every admitted pair solved
/// in cache order, the first strictly lowest-energy feasible one winning.
/// `sink` sees every candidate (solve_report keeps them; solve does not).
template <class Sink>
PairSolution best_cached_pair(const ModelParams& params,
                              const std::vector<ExactExpansion>& cache,
                              double rho, SpeedPolicy policy, Sink&& sink) {
  PairSolution best;
  double best_energy = std::numeric_limits<double>::infinity();
  for (const ExactExpansion& cached : cache) {
    if (policy == SpeedPolicy::kSingleSpeed &&
        cached.index1 != cached.index2) {
      continue;
    }
    PairSolution pair = solve_cached(params, rho, cached);
    if (pair.feasible && pair.energy_overhead < best_energy) {
      best_energy = pair.energy_overhead;
      best = pair;
    }
    sink(std::move(pair));
  }
  return best;
}

/// The best-effort pattern when no pair satisfies the bound: the pair with
/// the smallest EXACT achievable bound rho_min, run at its time-optimal
/// pattern size — the exact-model analog of
/// BiCritSolver::min_rho_solution (which ranks pairs by the first-order
/// tangency and is therefore blind outside the validity window).
PairSolution compute_min_rho(const ModelParams& params,
                             const std::vector<ExactExpansion>& cache,
                             SpeedPolicy policy) {
  PairSolution best;
  best.feasible = false;
  double best_rho = std::numeric_limits<double>::infinity();
  for (const ExactExpansion& pair : cache) {
    if (policy == SpeedPolicy::kSingleSpeed && pair.index1 != pair.index2) {
      continue;
    }
    if (!(pair.rho_min < best_rho)) continue;
    best_rho = pair.rho_min;
    best.feasible = true;
    best.first_order_valid = pair.first_order_valid;
    best.sigma1 = pair.sigma1;
    best.sigma2 = pair.sigma2;
    best.sigma1_index = pair.index1;
    best.sigma2_index = pair.index2;
    best.rho_min = pair.rho_min;
    best.w_opt = pair.w_time;  // tangency pattern size, exact model
    best.w_energy = pair.w_energy;
    best.w_min = pair.w_time;
    best.w_max = pair.w_time;
    best.time_overhead = pair.rho_min;
    best.energy_overhead = detail::energy_overhead_unchecked(
        params, pair.w_time, pair.sigma1, pair.sigma2);
  }
  return best;
}

}  // namespace

ExactOptBackend::ExactOptBackend(ModelParams params)
    : params_(std::move(params)) {
  // Everything prepare() or a solve could reject is rejected here — never
  // inside a pool worker.
  params_.validate();
  capabilities_.kind = SolutionKind::kPair;
  capabilities_.axes = pair_axes();
  capabilities_.shared_axes = {SweepAxis::kPerformanceBound};
  capabilities_.pair_table = true;
  capabilities_.min_rho_fallback = true;
  capabilities_.cost_weight = 3.0;
  // ρ grids classify every cached pair in one kernel sweep of the flat
  // rho_min/time_at_we arrays (solve_batch); model axes rebind to the
  // seeded numeric path and chain warm starts along the grid.
  capabilities_.warm_start_chain = true;
  capabilities_.version = "exact-1";
  capabilities_.validity =
      "cached exact-model curve optima (warm-started from the first-order "
      "argmins where 5.2 holds); valid for any error rates";
}

const char* ExactOptBackend::name() const noexcept { return "exact-opt"; }

void ExactOptBackend::prepare(const ParallelFor& parallel_build) {
  if (prepared_) return;
  // One SoA kernel pass supplies every pair's first-order seeds.
  const ExpansionSoA table = ExpansionSoA::build(params_);
  const std::size_t k = table.k;
  expansions_.resize(k * k);
  const auto build = [this, k, &table](std::size_t index) {
    expansions_[index] =
        make_expansion(params_, table, index / k, index % k);
  };
  if (parallel_build) {
    // Every entry is computed independently and written to its own slot,
    // so any schedule yields the same cache bit for bit.
    parallel_build(expansions_.size(), build);
  } else {
    for (std::size_t index = 0; index < expansions_.size(); ++index) {
      build(index);
    }
  }
  rho_mins_.resize(expansions_.size());
  times_at_we_.resize(expansions_.size());
  for (std::size_t index = 0; index < expansions_.size(); ++index) {
    rho_mins_[index] = expansions_[index].rho_min;
    times_at_we_[index] = expansions_[index].time_at_we;
  }
  min_rho_two_ = compute_min_rho(params_, expansions_, SpeedPolicy::kTwoSpeed);
  min_rho_single_ =
      compute_min_rho(params_, expansions_, SpeedPolicy::kSingleSpeed);
  prepared_ = true;
}

void ExactOptBackend::check_solvable(double rho) const {
  if (!prepared_) {
    throw std::logic_error(
        "ExactOptBackend: prepare() must run before the first solve (the "
        "per-pair exact curve optimization is deferred)");
  }
  if (!(rho > 0.0)) {
    throw std::invalid_argument("ExactOptBackend: rho must be positive");
  }
}

const PairSolution& ExactOptBackend::min_rho_pair(SpeedPolicy policy) const {
  if (!prepared_) {
    throw std::logic_error(
        "ExactOptBackend: prepare() must run before the min-rho fallback "
        "is known");
  }
  return policy == SpeedPolicy::kSingleSpeed ? min_rho_single_ : min_rho_two_;
}

Solution ExactOptBackend::solve(double rho, SpeedPolicy policy,
                                bool min_rho_fallback) const {
  check_solvable(rho);
  return pair_or_fallback(
      best_cached_pair(params_, expansions_, rho, policy,
                       [](PairSolution&&) {}),
      min_rho_pair(policy), min_rho_fallback);
}

Solution ExactOptBackend::solve_baseline(double rho,
                                         bool min_rho_fallback) const {
  return solve(rho, SpeedPolicy::kSingleSpeed, min_rho_fallback);
}

Solution ExactOptBackend::min_rho(SpeedPolicy policy) const {
  return Solution::from_pair(min_rho_pair(policy));
}

PairSolution ExactOptBackend::solve_pair(double rho, std::size_t i,
                                         std::size_t j) const {
  check_solvable(rho);
  const std::size_t k = params_.speeds.size();
  if (i >= k || j >= k) {
    throw std::out_of_range("ExactOptBackend: speed index out of range");
  }
  return solve_cached(params_, rho, expansions_[i * k + j]);
}

BiCritSolution ExactOptBackend::solve_report(double rho,
                                             SpeedPolicy policy) const {
  check_solvable(rho);
  BiCritSolution solution;
  solution.pairs.reserve(expansions_.size());
  solution.best = best_cached_pair(
      params_, expansions_, rho, policy,
      [&solution](PairSolution&& pair) {
        solution.pairs.push_back(std::move(pair));
      });
  solution.feasible = solution.best.feasible;
  return solution;
}

PairSolution ExactOptBackend::solve_classified(double rho, SpeedPolicy policy,
                                               const unsigned char* cls) const {
  // Same scan as solve_report() — in cache order, strict-< selection — but
  // the per-slot branch tests were already answered by the classify kernel
  // and no PairSolution report is materialized: class-0 slots cost
  // nothing, class-1 slots cost one comparison against the cached
  // minimum, and only winners (and class-2 bisections) build solutions.
  check_solvable(rho);
  PairSolution best;
  best.feasible = false;
  double best_energy = std::numeric_limits<double>::infinity();
  for (std::size_t s = 0; s < expansions_.size(); ++s) {
    const ExactExpansion& pair = expansions_[s];
    if (policy == SpeedPolicy::kSingleSpeed && pair.index1 != pair.index2) {
      continue;
    }
    if (cls[s] == 0) continue;
    if (cls[s] == 1) {
      if (pair.energy_min < best_energy) {
        best_energy = pair.energy_min;
        best = lookup_solution(pair);
      }
      continue;
    }
    PairSolution candidate = tight_solution(params_, rho, pair);
    if (candidate.feasible && candidate.energy_overhead < best_energy) {
      best_energy = candidate.energy_overhead;
      best = std::move(candidate);
    }
  }
  return best;
}

std::unique_ptr<SolverBackend> ExactOptBackend::rebind(
    ModelParams params, const PairSeedTable* seeds) const {
  // Per-point panels on model axes keep the historical per-bound numeric
  // path (one bound per point makes the cached curve structure useless);
  // the seeds — harvested from the neighboring grid point — are what keep
  // that path cheap along a chained panel.
  return std::make_unique<ClosedFormBackend>(std::move(params),
                                             EvalMode::kExactOptimize,
                                             seeds);
}

void ExactOptBackend::solve_batch(SweepAxis axis, const double* rhos,
                                  std::size_t count, double panel_rho,
                                  bool min_rho_fallback,
                                  PanelPoint* out) const {
  if (axis != SweepAxis::kPerformanceBound) {
    SolverBackend::solve_batch(axis, rhos, count, panel_rho,
                               min_rho_fallback, out);
    return;
  }
  std::vector<unsigned char> cls(rho_mins_.size());
  for (std::size_t p = 0; p < count; ++p) {
    const double rho = rhos[p];
    // One classify sweep answers both policies' per-pair branch tests;
    // the classified scans below are bit-identical to
    // solve_report(rho, ·).best.
    kernels::classify_pairs(rho_mins_.data(), times_at_we_.data(),
                            rho_mins_.size(), rho, cls.data());
    PanelPoint point;
    point.x = rho;
    point.primary = pair_or_fallback(
        solve_classified(rho, SpeedPolicy::kTwoSpeed, cls.data()),
        min_rho_pair(SpeedPolicy::kTwoSpeed), min_rho_fallback);
    point.baseline = pair_or_fallback(
        solve_classified(rho, SpeedPolicy::kSingleSpeed, cls.data()),
        min_rho_pair(SpeedPolicy::kSingleSpeed), min_rho_fallback);
    out[p] = point;
  }
}

// ---------------------------------------------------------------------
// InterleavedBackend
// ---------------------------------------------------------------------

namespace {

InterleavedSolution solve_cached(const ModelParams& params, double rho,
                                 const InterleavedExpansion& expansion) {
  InterleavedSolution solution;
  solution.segments = expansion.segments;
  solution.sigma1 = expansion.sigma1;
  solution.sigma2 = expansion.sigma2;
  if (!(expansion.rho_min <= rho)) return solution;  // bound unattainable

  if (expansion.time_at_we <= rho) {
    // The unconstrained energy optimum already satisfies the bound: the
    // solve is a pure cache lookup (the common case of loose-ρ grid
    // points, and the reason one backend serves a whole sweep).
    solution.feasible = true;
    solution.w_opt = expansion.w_energy;
    solution.energy_overhead = expansion.energy_min;
    solution.time_overhead = expansion.time_at_we;
    return solution;
  }

  // The unconstrained energy optimum violates the bound, so the
  // constrained optimum sits on the feasibility boundary between w_time
  // (feasible) and w_energy (not): both overhead curves are unimodal, so
  // energy only decreases toward w_energy and the boundary nearest it
  // wins. Locate it by bisection, keeping the feasible end.
  const unsigned m = expansion.segments;
  const auto time_per_work = [&](double w) {
    return detail::expected_time_interleaved_unchecked(
               params, w, m, expansion.sigma1, expansion.sigma2) /
           w;
  };
  double inside = expansion.w_time;
  double outside = expansion.w_energy;
  for (int it = 0; it < 200 && std::abs(outside - inside) >
                                   1e-9 * (inside + 1.0); ++it) {
    const double mid = 0.5 * (inside + outside);
    (time_per_work(mid) <= rho ? inside : outside) = mid;
  }
  const double w_opt = inside;
  solution.feasible = true;
  solution.w_opt = w_opt;
  solution.energy_overhead = detail::expected_energy_interleaved_unchecked(
                                 params, w_opt, m, expansion.sigma1,
                                 expansion.sigma2) /
                             w_opt;
  solution.time_overhead = time_per_work(w_opt);
  return solution;
}

}  // namespace

InterleavedBackend::InterleavedBackend(ModelParams params,
                                       unsigned max_segments,
                                       unsigned fixed_segments)
    : params_(std::move(params)),
      max_segments_(max_segments),
      fixed_segments_(fixed_segments) {
  // The one validation of these params: everything prepare() and the
  // solves would reject is rejected here — never inside a pool worker —
  // so the cache build and the bisections run the unchecked curves.
  params_.validate();
  if (params_.lambda_failstop > 0.0) {
    throw std::invalid_argument(
        "InterleavedBackend: interleaved mode requires lambda_failstop = 0 "
        "(the segmented closed forms are derived for silent errors)");
  }
  if (max_segments_ == 0) {
    throw std::invalid_argument(
        "InterleavedBackend: need at least one segment");
  }
  if (fixed_segments_ > max_segments_) {
    throw std::invalid_argument(
        "InterleavedBackend: fixed_segments must be in [0, max_segments]");
  }
  capabilities_.kind = SolutionKind::kInterleaved;
  capabilities_.axes = {SweepAxis::kPerformanceBound, SweepAxis::kSegments};
  // Both axes leave the model untouched: one prepared backend serves every
  // grid point of either panel.
  capabilities_.shared_axes = capabilities_.axes;
  capabilities_.pair_table = false;
  capabilities_.min_rho_fallback = false;
  capabilities_.cost_weight = 8.0;
  // ρ grids classify every cached (pair, m) slot in one kernel sweep
  // (solve_batch).
  capabilities_.max_segments = max_segments_;
  capabilities_.version = "il-1";
  capabilities_.validity =
      "exact segmented expectations (silent errors only, lambda_f = 0); "
      "m = 1 is the paper's own pattern";
}

const char* InterleavedBackend::name() const noexcept {
  return "interleaved";
}

void InterleavedBackend::prepare(const ParallelFor& /*parallel_build*/) {
  if (prepared_) return;
  const std::size_t speed_count = params_.speeds.size();
  expansions_.reserve(speed_count * speed_count * max_segments_);
  const NumericOptions options;
  for (std::size_t i = 0; i < speed_count; ++i) {
    for (std::size_t j = 0; j < speed_count; ++j) {
      const double sigma1 = params_.speeds[i];
      const double sigma2 = params_.speeds[j];
      for (unsigned m = 1; m <= max_segments_; ++m) {
        InterleavedExpansion expansion;
        expansion.sigma1 = sigma1;
        expansion.sigma2 = sigma2;
        expansion.index1 = static_cast<int>(i);
        expansion.index2 = static_cast<int>(j);
        expansion.segments = m;
        const auto time_per_work = [&](double w) {
          return detail::expected_time_interleaved_unchecked(
              params_, w, m, sigma1, sigma2) / w;
        };
        const auto energy_per_work = [&](double w) {
          return detail::expected_energy_interleaved_unchecked(
              params_, w, m, sigma1, sigma2) / w;
        };
        expansion.w_time = minimize_unimodal_overhead(time_per_work, options);
        expansion.rho_min = time_per_work(expansion.w_time);
        expansion.w_energy =
            minimize_unimodal_overhead(energy_per_work, options);
        expansion.energy_min = energy_per_work(expansion.w_energy);
        expansion.time_at_we = time_per_work(expansion.w_energy);
        expansions_.push_back(expansion);
      }
    }
  }
  rho_mins_.resize(expansions_.size());
  times_at_we_.resize(expansions_.size());
  for (std::size_t index = 0; index < expansions_.size(); ++index) {
    rho_mins_[index] = expansions_[index].rho_min;
    times_at_we_[index] = expansions_[index].time_at_we;
  }
  prepared_ = true;
}

void InterleavedBackend::check_solvable(double rho) const {
  if (!prepared_) {
    throw std::logic_error(
        "InterleavedBackend: prepare() must run before the first solve "
        "(the per-(pair, m) curve optimization is deferred)");
  }
  if (!(rho > 0.0)) {
    throw std::invalid_argument("InterleavedBackend: rho must be positive");
  }
}

InterleavedSolution InterleavedBackend::search(double rho,
                                               unsigned segments) const {
  check_solvable(rho);
  InterleavedSolution best;
  if (segments != 0) best.segments = segments;
  best.energy_overhead = std::numeric_limits<double>::infinity();
  for (const InterleavedExpansion& expansion : expansions_) {
    if (segments != 0 && expansion.segments != segments) continue;
    const InterleavedSolution candidate = solve_cached(params_, rho, expansion);
    if (candidate.feasible &&
        candidate.energy_overhead < best.energy_overhead) {
      best = candidate;
    }
  }
  if (!best.feasible) best.energy_overhead = 0.0;
  return best;
}

InterleavedSolution InterleavedBackend::search_classified(
    double rho, unsigned segments, const unsigned char* cls) const {
  // Same scan as search() — in cache order, strict-< selection, same
  // trailing overhead reset — but the feasibility and lookup branch tests
  // were already answered in bulk by the classify kernel: class-0 slots
  // are skipped off one byte, class-1 slots cost one comparison against
  // the cached minimum, and only class-2 slots (tight bounds) pay the
  // bisection.
  check_solvable(rho);
  InterleavedSolution best;
  if (segments != 0) best.segments = segments;
  best.energy_overhead = std::numeric_limits<double>::infinity();
  for (std::size_t s = 0; s < expansions_.size(); ++s) {
    const InterleavedExpansion& expansion = expansions_[s];
    if (segments != 0 && expansion.segments != segments) continue;
    if (cls[s] == 0) continue;
    if (cls[s] == 1) {
      if (expansion.energy_min < best.energy_overhead) {
        best.feasible = true;
        best.segments = expansion.segments;
        best.sigma1 = expansion.sigma1;
        best.sigma2 = expansion.sigma2;
        best.w_opt = expansion.w_energy;
        best.energy_overhead = expansion.energy_min;
        best.time_overhead = expansion.time_at_we;
      }
      continue;
    }
    const InterleavedSolution candidate = solve_cached(params_, rho, expansion);
    if (candidate.feasible &&
        candidate.energy_overhead < best.energy_overhead) {
      best = candidate;
    }
  }
  if (!best.feasible) best.energy_overhead = 0.0;
  return best;
}

Solution InterleavedBackend::solve(double rho, SpeedPolicy /*policy*/,
                                   bool /*min_rho_fallback*/) const {
  // Interleaved mode enumerates every pair (no single-speed variant) and
  // has no min-ρ fallback; both arguments are accepted for interface
  // uniformity and ignored, as the solve path always has.
  return Solution::from_interleaved(search(rho, fixed_segments_));
}

Solution InterleavedBackend::solve_baseline(double rho,
                                            bool /*min_rho_fallback*/) const {
  return Solution::from_interleaved(search(rho, 1));
}

Solution InterleavedBackend::solve_segments(double rho,
                                            unsigned segments) const {
  if (segments == 0 || segments > max_segments_) {
    throw std::invalid_argument(
        "InterleavedBackend: segments must be in [1, max_segments]");
  }
  return Solution::from_interleaved(search(rho, segments));
}

Solution InterleavedBackend::min_rho(SpeedPolicy /*policy*/) const {
  // No min-ρ fallback in interleaved mode: an infeasible Solution.
  return Solution::from_interleaved(InterleavedSolution{});
}

std::unique_ptr<SolverBackend> InterleavedBackend::rebind(
    ModelParams params, const PairSeedTable* /*seeds*/) const {
  // No warm-start chain: the interleaved minimizations stay cold so the
  // cached curve data (and the golden fixtures over it) never move.
  return std::make_unique<InterleavedBackend>(std::move(params),
                                              max_segments_,
                                              fixed_segments_);
}

void InterleavedBackend::solve_batch(SweepAxis axis, const double* rhos,
                                     std::size_t count, double panel_rho,
                                     bool min_rho_fallback,
                                     PanelPoint* out) const {
  if (axis != SweepAxis::kPerformanceBound) {
    SolverBackend::solve_batch(axis, rhos, count, panel_rho,
                               min_rho_fallback, out);
    return;
  }
  std::vector<unsigned char> cls(rho_mins_.size());
  for (std::size_t p = 0; p < count; ++p) {
    const double rho = rhos[p];
    // One classify sweep over every (σ1, σ2, m) slot serves the primary
    // search and the m = 1 baseline of this grid point.
    kernels::classify_pairs(rho_mins_.data(), times_at_we_.data(),
                            rho_mins_.size(), rho, cls.data());
    PanelPoint point;
    point.x = rho;
    point.primary = Solution::from_interleaved(
        search_classified(rho, fixed_segments_, cls.data()));
    point.baseline =
        Solution::from_interleaved(search_classified(rho, 1, cls.data()));
    out[p] = point;
  }
}

// ---------------------------------------------------------------------

std::unique_ptr<SolverBackend> make_mode_backend(ModelParams params,
                                                 EvalMode mode) {
  if (mode == EvalMode::kExactOptimize) {
    return std::make_unique<ExactOptBackend>(std::move(params));
  }
  return std::make_unique<ClosedFormBackend>(std::move(params), mode);
}

}  // namespace rexspeed::core
