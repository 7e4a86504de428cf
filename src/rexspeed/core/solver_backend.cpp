#include "rexspeed/core/solver_backend.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <stdexcept>
#include <utility>

#include "rexspeed/core/kernels/kernel_dispatch.hpp"

namespace rexspeed::core {

Solution Solution::from_pair(PairSolution solution, bool used_fallback) {
  Solution out;
  out.kind = SolutionKind::kPair;
  out.pair = std::move(solution);
  out.used_fallback = used_fallback;
  return out;
}

Solution Solution::from_interleaved(InterleavedSolution solution) {
  Solution out;
  out.kind = SolutionKind::kInterleaved;
  out.interleaved = solution;
  return out;
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

/// Shared fallback step of every pair backend's solve: degrade an
/// infeasible best to the backend's min-ρ policy when asked to — one step
/// for the panel and solve paths, so they cannot diverge.
Solution pair_solution_with_fallback(PairSolution best,
                                     const PairSolution& fallback,
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
  return to_mode_name(mode_);
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
  return std::make_unique<ClosedFormBackend>(std::move(params), mode_,
                                             seeds);
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
                       ? pair_solution_with_fallback(
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
  // table. The swept axes never touch the speed set, so the scratch's
  // size holds throughout.
  ExpansionSoA table;
  for (std::size_t p = 0; p < count; ++p) {
    table.rebuild(apply_parameter(params(), axis, xs[p]),
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
  point.primary = pair_solution_with_fallback(
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
  point.baseline = pair_solution_with_fallback(
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
  if (!exact_) exact_.emplace(params_, parallel_build);
}

const ExactSolver& ExactOptBackend::exact() const {
  if (!exact_) {
    throw std::logic_error(
        "ExactOptBackend: prepare() must run before the first solve (the "
        "per-pair exact curve optimization is deferred)");
  }
  return *exact_;
}

Solution ExactOptBackend::solve(double rho, SpeedPolicy policy,
                                bool min_rho_fallback) const {
  const ExactSolver& solver = exact();
  return pair_solution_with_fallback(solver.solve(rho, policy).best,
                                     solver.min_rho_solution(policy),
                                     min_rho_fallback);
}

Solution ExactOptBackend::solve_baseline(double rho,
                                         bool min_rho_fallback) const {
  return solve(rho, SpeedPolicy::kSingleSpeed, min_rho_fallback);
}

Solution ExactOptBackend::min_rho(SpeedPolicy policy) const {
  return Solution::from_pair(exact().min_rho_solution(policy));
}

PairSolution ExactOptBackend::solve_pair(double rho, std::size_t i,
                                         std::size_t j) const {
  return exact().solve_pair_by_index(rho, i, j);
}

BiCritSolution ExactOptBackend::solve_report(double rho,
                                             SpeedPolicy policy) const {
  return exact().solve(rho, policy);
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
  const ExactSolver& solver = exact();
  const std::vector<double>& rho_mins = solver.rho_mins();
  const std::vector<double>& times_at_we = solver.times_at_we();
  std::vector<unsigned char> cls(rho_mins.size());
  // The min-ρ fallbacks are ρ-independent: one copy per policy serves the
  // whole batch with the bits every per-point call would return.
  const PairSolution fallback_two =
      solver.min_rho_solution(SpeedPolicy::kTwoSpeed);
  const PairSolution fallback_single =
      solver.min_rho_solution(SpeedPolicy::kSingleSpeed);
  for (std::size_t p = 0; p < count; ++p) {
    const double rho = rhos[p];
    // One classify sweep answers both policies' per-pair branch tests;
    // the classified scans below are bit-identical to solve(rho, ·).best.
    kernels::classify_pairs(rho_mins.data(), times_at_we.data(),
                            rho_mins.size(), rho, cls.data());
    PanelPoint point;
    point.x = rho;
    point.primary = pair_solution_with_fallback(
        solver.solve_classified(rho, SpeedPolicy::kTwoSpeed, cls.data()),
        fallback_two, min_rho_fallback);
    point.baseline = pair_solution_with_fallback(
        solver.solve_classified(rho, SpeedPolicy::kSingleSpeed, cls.data()),
        fallback_single, min_rho_fallback);
    out[p] = point;
  }
}

// ---------------------------------------------------------------------
// InterleavedBackend
// ---------------------------------------------------------------------

InterleavedBackend::InterleavedBackend(ModelParams params,
                                       unsigned max_segments,
                                       unsigned fixed_segments)
    : params_(std::move(params)),
      max_segments_(max_segments),
      fixed_segments_(fixed_segments) {
  // Everything the deferred prepare() (and pool workers) would reject is
  // rejected here instead — the InterleavedSolver preconditions included,
  // so prepare() cannot throw later.
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
  // Both axes leave the model untouched: one prepared solver serves every
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
  if (!solver_) solver_.emplace(params_, max_segments_);
}

const InterleavedSolver& InterleavedBackend::solver() const {
  if (!solver_) {
    throw std::logic_error(
        "InterleavedBackend: prepare() must run before the first solve "
        "(the per-(pair, m) curve optimization is deferred)");
  }
  return *solver_;
}

Solution InterleavedBackend::solve(double rho, SpeedPolicy /*policy*/,
                                   bool /*min_rho_fallback*/) const {
  // Interleaved mode enumerates every pair (no single-speed variant) and
  // has no min-ρ fallback; both arguments are accepted for interface
  // uniformity and ignored, as the solve path always has.
  const InterleavedSolver& cached = solver();
  return Solution::from_interleaved(
      fixed_segments_ > 0 ? cached.solve_segments(rho, fixed_segments_)
                          : cached.solve(rho));
}

Solution InterleavedBackend::solve_baseline(double rho,
                                            bool /*min_rho_fallback*/) const {
  return Solution::from_interleaved(solver().solve_segments(rho, 1));
}

Solution InterleavedBackend::solve_segments(double rho,
                                            unsigned segments) const {
  return Solution::from_interleaved(solver().solve_segments(rho, segments));
}

Solution InterleavedBackend::min_rho(SpeedPolicy /*policy*/) const {
  // No min-ρ fallback in interleaved mode: an infeasible Solution.
  Solution out;
  out.kind = SolutionKind::kInterleaved;
  return out;
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
  const InterleavedSolver& cached = solver();
  const std::vector<double>& rho_mins = cached.rho_mins();
  const std::vector<double>& times_at_we = cached.times_at_we();
  std::vector<unsigned char> cls(rho_mins.size());
  for (std::size_t p = 0; p < count; ++p) {
    const double rho = rhos[p];
    // One classify sweep over every (σ1, σ2, m) slot serves the primary
    // search and the m = 1 baseline of this grid point.
    kernels::classify_pairs(rho_mins.data(), times_at_we.data(),
                            rho_mins.size(), rho, cls.data());
    PanelPoint point;
    point.x = rho;
    point.primary = Solution::from_interleaved(
        cached.solve_classified(rho, fixed_segments_, cls.data()));
    point.baseline = Solution::from_interleaved(
        cached.solve_classified(rho, 1, cls.data()));
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
