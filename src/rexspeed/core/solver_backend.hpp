#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <variant>
#include <vector>

#include "rexspeed/core/bicrit_solver.hpp"
#include "rexspeed/core/exact_solver.hpp"
#include "rexspeed/core/interleaved.hpp"
#include "rexspeed/core/sweep_axis.hpp"

namespace rexspeed::core {

/// Which payload a unified Solution carries.
enum class SolutionKind {
  kPair,         ///< a speed-pair pattern (PairSolution)
  kInterleaved,  ///< a segmented pattern (InterleavedSolution)
};

/// The unified solve outcome every SolverBackend returns: exactly one of
/// PairSolution (the closed-form and exact backends) and
/// InterleavedSolution (the segmented backend), behind one common
/// feasibility / speeds / overhead view, so engine drivers, panels and the
/// CLI report any backend's result without mode branches. The payload is a
/// variant whose index is the kind, so a Solution stores one payload, not
/// both (a PanelPoint holds two Solutions per grid point). pair() and
/// interleaved() are checked: asking for the payload a Solution does not
/// hold throws std::logic_error instead of reading defaults.
class Solution {
 public:
  /// An infeasible pair solution (the default payload).
  Solution() = default;

  [[nodiscard]] static Solution from_pair(PairSolution solution,
                                          bool used_fallback = false);
  [[nodiscard]] static Solution from_interleaved(
      InterleavedSolution solution);

  [[nodiscard]] SolutionKind kind() const noexcept {
    return payload_.index() == 0 ? SolutionKind::kPair
                                 : SolutionKind::kInterleaved;
  }

  /// The kPair payload; throws std::logic_error on an interleaved one.
  [[nodiscard]] const PairSolution& pair() const {
    return checked<PairSolution>();
  }
  [[nodiscard]] PairSolution& pair() { return checked<PairSolution>(); }
  /// The kInterleaved payload; throws std::logic_error on a pair one.
  [[nodiscard]] const InterleavedSolution& interleaved() const {
    return checked<InterleavedSolution>();
  }
  [[nodiscard]] InterleavedSolution& interleaved() {
    return checked<InterleavedSolution>();
  }
  /// The payload of type `Payload` (PairSolution or
  /// InterleavedSolution), or null when the Solution holds the other one.
  template <class Payload>
  [[nodiscard]] const Payload* payload_if() const noexcept {
    return std::get_if<Payload>(&payload_);
  }
  template <class Payload>
  [[nodiscard]] Payload* payload_if() noexcept {
    return std::get_if<Payload>(&payload_);
  }

  /// True when the bound was unachievable and the backend degraded to its
  /// min-ρ best-effort policy (pair backends only; see
  /// SolverBackend::solve).
  bool used_fallback = false;

  // ---- the common view -------------------------------------------------
  [[nodiscard]] bool feasible() const noexcept {
    return view([](const auto& p) { return p.feasible; });
  }
  [[nodiscard]] double sigma1() const noexcept {
    return view([](const auto& p) { return p.sigma1; });
  }
  [[nodiscard]] double sigma2() const noexcept {
    return view([](const auto& p) { return p.sigma2; });
  }
  [[nodiscard]] double w_opt() const noexcept {
    return view([](const auto& p) { return p.w_opt; });
  }
  [[nodiscard]] double energy_overhead() const noexcept {
    return view([](const auto& p) { return p.energy_overhead; });
  }
  [[nodiscard]] double time_overhead() const noexcept {
    return view([](const auto& p) { return p.time_overhead; });
  }
  /// Verifications per pattern (1 for every pair solution — the paper's
  /// own pattern).
  [[nodiscard]] unsigned segments() const noexcept {
    const InterleavedSolution* pattern = payload_if<InterleavedSolution>();
    return pattern != nullptr ? pattern->segments : 1u;
  }

 private:
  template <class Payload>
  [[nodiscard]] const Payload& checked() const {
    const Payload* payload = payload_if<Payload>();
    if (payload == nullptr) throw_wrong_kind();
    return *payload;
  }
  template <class Payload>
  [[nodiscard]] Payload& checked() {
    Payload* payload = payload_if<Payload>();
    if (payload == nullptr) throw_wrong_kind();
    return *payload;
  }
  [[noreturn]] void throw_wrong_kind() const;

  template <class Field>
  [[nodiscard]] std::invoke_result_t<Field, const PairSolution&> view(
      Field field) const noexcept {
    if (const PairSolution* pair = payload_if<PairSolution>()) {
      return field(*pair);
    }
    return field(*payload_if<InterleavedSolution>());
  }

  std::variant<PairSolution, InterleavedSolution> payload_;
};

/// One x position of a figure panel, backend-agnostic: the backend's best
/// solution next to its baseline (single-speed for pair backends, m = 1
/// for the interleaved backend). The generic sweep::PanelSweep fills a
/// vector of these (sweep::PanelSeries, the one panel type).
struct PanelPoint {
  double x = 0.0;
  Solution primary;   ///< the backend's configured best
  Solution baseline;  ///< the backend's baseline policy

  /// Energy saved by the primary policy relative to the baseline, as a
  /// fraction of the baseline overhead (the paper's "up to 35%").
  [[nodiscard]] double energy_saving() const noexcept;
};

/// What a backend can do — the data the engine's generic drivers dispatch
/// on instead of mode-specific branches.
struct BackendCapabilities {
  SolutionKind kind = SolutionKind::kPair;
  /// Panel axes the backend sweeps, in composite (figure) order.
  std::vector<SweepAxis> axes;
  /// Axes where ONE prepared backend instance serves the whole panel (the
  /// swept value never touches the model parameters). On the other
  /// supported axes every grid point has its own params: the reference
  /// path (SolverBackend::solve_batch's default) rebind()s a per-point
  /// backend, and a backend may override solve_batch to rewrite one
  /// scratch cache per point instead (the first-order closed forms do).
  std::vector<SweepAxis> shared_axes;
  /// True when solve_pair / solve_report (the §4.2 speed-pair tables) are
  /// available.
  bool pair_table = false;
  /// True when the backend has a min-ρ best-effort fallback policy.
  bool min_rho_fallback = false;
  /// True when rebind() accepts a PairSeedTable and
  /// solve_panel_point_seeded harvests one — the warm-start chain the
  /// model-axis panels of the numeric exact mode thread along their grid.
  bool warm_start_chain = false;
  /// Relative cost of one panel-point solve, used by campaign-level
  /// scheduling to order long panels first. 1.0 = a first-order solve.
  double cost_weight = 1.0;
  /// Segment-count search cap (1 for pair backends) — the upper end of
  /// the kSegments axis.
  unsigned max_segments = 1;
  /// Human-readable validity-window note (e.g. the §5.2 first-order
  /// window), surfaced by documentation and diagnostics.
  std::string validity;
  /// Numeric-contract version tag, hashed into every persistent-cache key
  /// (store::panel_key / solve_key). Bump it whenever the backend's output
  /// bits can change — cached entries from older numerics then miss
  /// instead of resurfacing stale results.
  std::string version = "1";

  [[nodiscard]] bool supports(SweepAxis axis) const noexcept;
  [[nodiscard]] bool shares_panel_solver(SweepAxis axis) const noexcept;
};

/// Construction parallelizer hook shared by every backend's prepare():
/// call fn(i) for every i in [0, count), in any order, and return once all
/// completed. Empty means serial (sweep::make_parallel_build adapts a
/// pool).
using ParallelFor = std::function<void(
    std::size_t count, const std::function<void(std::size_t)>& fn)>;

/// The polymorphic solver interface behind every evaluation mode —
/// first-order closed forms, cached exact optimization, interleaved
/// verification, and whatever comes next. One backend is bound to one
/// ModelParams bundle and one mode configuration; the engine's registry
/// (engine::backend_registry) maps mode names to factories, so adding a
/// mode is one class plus one registration.
///
/// Lifecycle: construction validates everything and is cheap; prepare()
/// pays the backend's heavy ρ-independent cache (idempotent, cannot throw
/// on a constructed backend, optionally parallelized — the finished cache
/// is bit-identical any schedule); solves afterwards are cheap feasibility
/// math. needs_prepare() is true until prepare() ran for backends that
/// defer work (a backend whose construction is already complete returns
/// false throughout).
///
/// Thread-safety: after prepare(), a backend is immutable — every solve is
/// const and touches only the prepared caches, so one backend is safe to
/// share across ThreadPool workers without synchronization (the contract
/// BiCritSolver shares).
class SolverBackend {
 public:
  virtual ~SolverBackend() = default;

  /// The registry mode name ("first-order", "exact-opt", ...).
  [[nodiscard]] virtual const char* name() const noexcept = 0;
  [[nodiscard]] virtual const ModelParams& params() const noexcept = 0;
  [[nodiscard]] virtual const BackendCapabilities& capabilities()
      const noexcept = 0;

  /// True until prepare() has built the caches this backend defers.
  [[nodiscard]] virtual bool needs_prepare() const noexcept = 0;

  /// Builds the deferred caches (idempotent; no-op for backends that need
  /// none). `parallel_build`, when set, distributes independent cache
  /// entries; it is not retained. Must complete before the first solve on
  /// backends that defer; never throws on a constructed backend.
  virtual void prepare(const ParallelFor& parallel_build = {}) = 0;

  /// Best solution at bound `rho`. Pair backends honor `policy`; the
  /// interleaved backend enumerates every pair regardless (it has no
  /// single-speed variant). With `min_rho_fallback` set, an unachievable
  /// bound degrades to the backend's min-ρ best-effort policy when it has
  /// one (Solution::used_fallback reports this).
  [[nodiscard]] virtual Solution solve(
      double rho, SpeedPolicy policy = SpeedPolicy::kTwoSpeed,
      bool min_rho_fallback = false) const = 0;

  /// The panel baseline at bound `rho`: the single-speed optimum for pair
  /// backends, the m = 1 pattern for the interleaved backend.
  [[nodiscard]] virtual Solution solve_baseline(
      double rho, bool min_rho_fallback = false) const = 0;

  /// Best pattern pinned at exactly `segments` verifications. Only
  /// backends advertising the kSegments axis implement this; the default
  /// throws std::logic_error.
  [[nodiscard]] virtual Solution solve_segments(double rho,
                                                unsigned segments) const;

  /// The backend's min-ρ best-effort policy (infeasible Solution when
  /// capabilities().min_rho_fallback is false).
  [[nodiscard]] virtual Solution min_rho(SpeedPolicy policy) const = 0;

  /// Solves the speed pair at positions (i, j) of the speed set. Requires
  /// capabilities().pair_table; the default throws std::logic_error.
  [[nodiscard]] virtual PairSolution solve_pair(double rho, std::size_t i,
                                                std::size_t j) const;

  /// Full reporting solve (best + every candidate pair — the §4.2
  /// tables). Requires capabilities().pair_table; the default throws
  /// std::logic_error.
  [[nodiscard]] virtual BiCritSolution solve_report(
      double rho, SpeedPolicy policy = SpeedPolicy::kTwoSpeed) const;

  /// A cheap per-point backend over different model parameters: the
  /// reference path of a point on a non-shared axis (C, V, λ, Pidle, Pio
  /// change the model per grid point by necessity), and the link of a
  /// warm-start chain. The result needs no prepare() beyond a no-op call
  /// and reproduces the historical per-point path of its mode bit for
  /// bit. `seeds`, when non-null, warm-starts the rebound backend's
  /// numeric bracketing (backends advertising warm_start_chain; others
  /// ignore it).
  [[nodiscard]] virtual std::unique_ptr<SolverBackend> rebind(
      ModelParams params, const PairSeedTable* seeds = nullptr) const = 0;

  /// One panel point on any supported axis, off this (already rebound for
  /// model axes) backend: x is the bound on the ρ axis, the pinned count
  /// on the segments axis, and recorded-only elsewhere. This is the
  /// per-grid-point reference every batched path must reproduce.
  [[nodiscard]] PanelPoint solve_panel_point(SweepAxis axis, double x,
                                             double panel_rho,
                                             bool min_rho_fallback) const;

  /// A contiguous run of one panel's grid in one call, on any supported
  /// axis: out[i] is the panel point at xs[i] (`out` holds `count`
  /// entries), bit-identical to the per-point reference — on a shared
  /// axis solve_panel_point off this backend, elsewhere
  /// rebind(apply_parameter(params(), axis, xs[i])) then
  /// solve_panel_point. The default IS that reference loop; overrides
  /// stream the run against contiguous caches (kernels::eval_pairs /
  /// classify_pairs). This is the one unit of work sweep::PanelSweep
  /// schedules: a chunk of a panel is one call. Shared axes need
  /// prepare() first.
  virtual void solve_batch(SweepAxis axis, const double* xs,
                           std::size_t count, double panel_rho,
                           bool min_rho_fallback, PanelPoint* out) const;

  /// solve_panel_point plus seed harvesting: backends advertising
  /// warm_start_chain fill `harvest` (when non-null) with this point's
  /// per-pair optima, ready to seed the next grid point's rebind. The
  /// default ignores `harvest` and delegates to solve_panel_point.
  [[nodiscard]] virtual PanelPoint solve_panel_point_seeded(
      SweepAxis axis, double x, double panel_rho, bool min_rho_fallback,
      PairSeedTable* harvest) const;
};

/// The closed-form backend family: BiCritSolver's cached first-order
/// expansions, evaluated per the mode (kFirstOrder, kExactEvaluation, or
/// the per-bound kExactOptimize path that panels use on non-ρ axes).
/// Construction is the complete preparation (needs_prepare() is false).
///
/// The partial-recall mode (registry "recall") is this backend too: to the
/// paper's §5.2 expansion order a verification of recall r is equivalent
/// to the silent-error rate r·λs (see core/recall_solver.hpp), so it is
/// the first-order mode over recall_effective_params(params, r) under its
/// own name and version tag — bit-identical to "first-order" at r = 1.
class ClosedFormBackend final : public SolverBackend {
 public:
  /// `seeds`, when non-null, is copied and warm-starts every
  /// kExactOptimize pair bracketing (the chain link rebind() forges;
  /// other modes ignore it).
  ClosedFormBackend(ModelParams params, EvalMode mode,
                    const PairSeedTable* seeds = nullptr);
  /// The partial-recall mode over `params`. Throws std::invalid_argument
  /// on invalid params or recall ∉ [0, 1].
  ClosedFormBackend(ModelParams params, double recall);

  [[nodiscard]] const char* name() const noexcept override;
  /// The model the backend was built for: in the recall mode the
  /// ORIGINAL parameters (panel rebinds sweep the true model axis, and the
  /// scaling is re-applied after it); solver() holds the scaled ones.
  [[nodiscard]] const ModelParams& params() const noexcept override {
    return recall_ ? recall_->unscaled : solver_.params();
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
  /// First-order and recall modes batch every pair axis: ρ runs against
  /// this backend's table, a model axis rewrites one scratch table per
  /// point (ExpansionSoA::rebuild). Other modes use the reference loop.
  void solve_batch(SweepAxis axis, const double* xs, std::size_t count,
                   double panel_rho, bool min_rho_fallback,
                   PanelPoint* out) const override;
  [[nodiscard]] PanelPoint solve_panel_point_seeded(
      SweepAxis axis, double x, double panel_rho, bool min_rho_fallback,
      PairSeedTable* harvest) const override;

  [[nodiscard]] EvalMode mode() const noexcept { return mode_; }
  [[nodiscard]] const BiCritSolver& solver() const noexcept {
    return solver_;
  }

 private:
  /// The point model `params` gives a model-axis panel point: `params`
  /// itself, or its recall-scaled twin in the recall mode.
  [[nodiscard]] ModelParams solved_params(ModelParams params) const;

  struct Recall {
    double recall;
    ModelParams unscaled;
  };

  BiCritSolver solver_;
  EvalMode mode_;
  PairSeedTable seeds_;
  std::optional<Recall> recall_;  ///< set in the recall mode only
  BackendCapabilities capabilities_;
};

/// The cached exact-optimization backend: construction validates,
/// prepare() pays the numeric optimization of both exact overhead curves
/// once per (σ1, σ2) pair (warm-started from the first-order argmins
/// where §5.2 holds), and every solve afterwards is feasibility math on
/// that cache plus at most one warm-started bisection per tight pair — the
/// property BiCritSolver has for the first-order mode, extended to the
/// mode that is valid outside the first-order window. ρ panels share one
/// prepared instance; other axes rebind to the per-bound
/// ClosedFormBackend path, exactly as the historical panel sweep did.
/// Its solve_report() is the cached equivalent of BiCritSolver::solve(rho,
/// policy, EvalMode::kExactOptimize), except that rho_min carries the
/// pair's exact floor (NaN there), w_min/w_max the bracket the search
/// proved feasible, and w_energy the true energy minimizer (w_opt there).
class ExactOptBackend final : public SolverBackend {
 public:
  /// Throws std::invalid_argument on invalid params.
  explicit ExactOptBackend(ModelParams params);

  [[nodiscard]] const char* name() const noexcept override;
  [[nodiscard]] const ModelParams& params() const noexcept override {
    return params_;
  }
  [[nodiscard]] const BackendCapabilities& capabilities()
      const noexcept override {
    return capabilities_;
  }
  [[nodiscard]] bool needs_prepare() const noexcept override {
    return !prepared_;
  }
  /// Every cache entry is computed independently into its own slot, so a
  /// `parallel_build` schedule cannot change a bit of the cache.
  void prepare(const ParallelFor& parallel_build = {}) override;
  [[nodiscard]] Solution solve(double rho, SpeedPolicy policy,
                               bool min_rho_fallback) const override;
  [[nodiscard]] Solution solve_baseline(double rho,
                                        bool min_rho_fallback) const override;
  /// The pair with the smallest EXACT achievable bound, run at its
  /// time-optimal pattern size.
  [[nodiscard]] Solution min_rho(SpeedPolicy policy) const override;
  /// Throws std::out_of_range on a bad index.
  [[nodiscard]] PairSolution solve_pair(double rho, std::size_t i,
                                        std::size_t j) const override;
  [[nodiscard]] BiCritSolution solve_report(
      double rho, SpeedPolicy policy) const override;
  [[nodiscard]] std::unique_ptr<SolverBackend> rebind(
      ModelParams params,
      const PairSeedTable* seeds = nullptr) const override;
  /// Batches the ρ axis against the prepared cache; other axes use the
  /// reference loop.
  void solve_batch(SweepAxis axis, const double* xs, std::size_t count,
                   double panel_rho, bool min_rho_fallback,
                   PanelPoint* out) const override;

  /// The cached pair-invariant data, row-major over the K×K speed grid
  /// (entry (i, j) at i * K + j); empty before prepare().
  [[nodiscard]] const std::vector<ExactExpansion>& expansions()
      const noexcept {
    return expansions_;
  }
  /// Contiguous per-slot feasibility floors / times-at-optimum, mirrors
  /// of the cache for the vectorized classify kernel to stream over.
  [[nodiscard]] const std::vector<double>& rho_mins() const noexcept {
    return rho_mins_;
  }
  [[nodiscard]] const std::vector<double>& times_at_we() const noexcept {
    return times_at_we_;
  }

 private:
  /// Throws std::logic_error before prepare(), std::invalid_argument on a
  /// non-positive bound.
  void check_solvable(double rho) const;
  [[nodiscard]] const PairSolution& min_rho_pair(SpeedPolicy policy) const;
  /// The best pair at `rho` under `policy`, driven by a per-slot class
  /// array from kernels::classify_pairs over rho_mins()/times_at_we()
  /// (0 = infeasible, 1 = cache lookup, 2 = tight): bit-identical to
  /// solve_report(rho, policy).best without materializing the report.
  [[nodiscard]] PairSolution solve_classified(double rho, SpeedPolicy policy,
                                              const unsigned char* cls) const;

  ModelParams params_;
  BackendCapabilities capabilities_;
  bool prepared_ = false;
  std::vector<ExactExpansion> expansions_;
  std::vector<double> rho_mins_;
  std::vector<double> times_at_we_;
  PairSolution min_rho_two_;
  PairSolution min_rho_single_;
};

/// The interleaved-verification backend: construction validates (λf = 0,
/// segment limits) — the only validation its params get — and prepare()
/// pays the numeric optimization of both segmented overhead curves once
/// per (σ1, σ2, m) for every pair and m ∈ [1, max_segments]. Every solve
/// afterwards is feasibility math on that cache plus one bisection per
/// candidate whose bound is tight, so one prepared instance serves a whole
/// ρ sweep and every count of an overhead-vs-m grid. A positive
/// `fixed_segments` pins the count (a `segments=M` scenario); 0 searches
/// every count in [1, max_segments].
class InterleavedBackend final : public SolverBackend {
 public:
  /// Throws std::invalid_argument on invalid params, λf ≠ 0,
  /// max_segments == 0, or fixed_segments > max_segments.
  InterleavedBackend(ModelParams params, unsigned max_segments,
                     unsigned fixed_segments = 0);

  [[nodiscard]] const char* name() const noexcept override;
  [[nodiscard]] const ModelParams& params() const noexcept override {
    return params_;
  }
  [[nodiscard]] const BackendCapabilities& capabilities()
      const noexcept override {
    return capabilities_;
  }
  [[nodiscard]] bool needs_prepare() const noexcept override {
    return !prepared_;
  }
  void prepare(const ParallelFor& parallel_build = {}) override;
  [[nodiscard]] Solution solve(double rho, SpeedPolicy policy,
                               bool min_rho_fallback) const override;
  [[nodiscard]] Solution solve_baseline(double rho,
                                        bool min_rho_fallback) const override;
  /// Throws std::invalid_argument unless 1 ≤ segments ≤ max_segments.
  [[nodiscard]] Solution solve_segments(double rho,
                                        unsigned segments) const override;
  [[nodiscard]] Solution min_rho(SpeedPolicy policy) const override;
  [[nodiscard]] std::unique_ptr<SolverBackend> rebind(
      ModelParams params,
      const PairSeedTable* seeds = nullptr) const override;
  /// Batches the ρ axis against the prepared cache; other axes use the
  /// reference loop.
  void solve_batch(SweepAxis axis, const double* xs, std::size_t count,
                   double panel_rho, bool min_rho_fallback,
                   PanelPoint* out) const override;

  [[nodiscard]] unsigned max_segments() const noexcept {
    return max_segments_;
  }
  [[nodiscard]] unsigned fixed_segments() const noexcept {
    return fixed_segments_;
  }
  /// The cached per-(pair, m) data: entry (i, j, m) at
  /// (i * K + j) * max_segments + (m - 1) over the K×K speed grid; empty
  /// before prepare().
  [[nodiscard]] const std::vector<InterleavedExpansion>& expansions()
      const noexcept {
    return expansions_;
  }
  /// Contiguous per-slot feasibility floors / times-at-optimum, mirrors
  /// of the cache for the vectorized classify kernel to stream over.
  [[nodiscard]] const std::vector<double>& rho_mins() const noexcept {
    return rho_mins_;
  }
  [[nodiscard]] const std::vector<double>& times_at_we() const noexcept {
    return times_at_we_;
  }

 private:
  /// Throws std::logic_error before prepare(), std::invalid_argument on a
  /// non-positive bound.
  void check_solvable(double rho) const;
  /// Best pattern at `rho` over every pair at exactly `segments`
  /// verifications (0 = every count in [1, max_segments]).
  [[nodiscard]] InterleavedSolution search(double rho,
                                           unsigned segments) const;
  /// search() driven by a per-slot class array from
  /// kernels::classify_pairs over rho_mins()/times_at_we() (0 =
  /// infeasible, 1 = cache lookup, 2 = tight): bit-identical, but a whole
  /// ρ grid shares one classification pass per point.
  [[nodiscard]] InterleavedSolution search_classified(
      double rho, unsigned segments, const unsigned char* cls) const;

  ModelParams params_;
  unsigned max_segments_;
  unsigned fixed_segments_;
  BackendCapabilities capabilities_;
  bool prepared_ = false;
  std::vector<InterleavedExpansion> expansions_;
  std::vector<double> rho_mins_;
  std::vector<double> times_at_we_;
};

/// The registry mode name of a closed-form EvalMode ("first-order",
/// "exact-eval", "exact-opt") — the single vocabulary source that
/// ClosedFormBackend::name() and the engine's spec→mode-name mapping
/// share.
[[nodiscard]] const char* to_mode_name(EvalMode mode) noexcept;

/// Backend for a bare EvalMode over one parameter bundle — the shape
/// callers use when no scenario is involved (engine::make_backend is the
/// scenario route). kFirstOrder/kExactEvaluation yield a (fully
/// prepared) ClosedFormBackend, kExactOptimize an ExactOptBackend whose
/// prepare() is still pending.
[[nodiscard]] std::unique_ptr<SolverBackend> make_mode_backend(
    ModelParams params, EvalMode mode);

}  // namespace rexspeed::core
