#pragma once

#include <cstddef>
#include <vector>

#include "rexspeed/core/expansion_soa.hpp"
#include "rexspeed/core/feasibility.hpp"
#include "rexspeed/core/first_order.hpp"
#include "rexspeed/core/model_params.hpp"
#include "rexspeed/core/numeric_optimizer.hpp"

namespace rexspeed::core {

/// Which speed pairs the solver may use.
enum class SpeedPolicy {
  kTwoSpeed,     ///< any (σ1, σ2) ∈ S × S — the paper's proposal
  kSingleSpeed,  ///< σ2 = σ1 — the classical baseline (dotted lines in the
                 ///< paper's figures)
};

/// How the per-pair optimum is computed and evaluated.
enum class EvalMode {
  kFirstOrder,       ///< Theorem 1 closed form, overheads from Eqs. (2)/(3)
                     ///< — the paper's procedure, O(K²) total
  kExactEvaluation,  ///< Theorem 1 pattern size, overheads re-evaluated with
                     ///< the exact expectations
  kExactOptimize,    ///< full numeric optimization of the exact model
                     ///< (valid outside the first-order window). Through
                     ///< BiCritSolver this re-optimizes per bound; repeated
                     ///< solves (ρ sweeps) should use the cached
                     ///< ExactOptBackend (solver_backend.hpp) instead — the
                     ///< registry's exact-opt mode routes solves and ρ
                     ///< panels there automatically.
};

/// Everything about a speed pair (σ1, σ2) that depends only on the model
/// parameters — not on the performance bound ρ. The solver precomputes one
/// of these per pair at construction, so every solve afterwards is pure
/// feasibility math on cached expansions. `index1`/`index2` are positions
/// in ModelParams::speeds, or -1 for speeds outside the set (the
/// out-of-set path of solve_pair).
struct PairExpansion {
  double sigma1 = 0.0;
  double sigma2 = 0.0;
  int index1 = -1;
  int index2 = -1;
  OverheadExpansion time_exp;
  OverheadExpansion energy_exp;
  /// Both expansions have y > 0 (paper §5.2 validity window).
  bool first_order_valid = true;
  /// Minimum admissible bound ρ_{i,j} (Eq. (6) generalized). Derived from
  /// the time expansion alone: −inf when time_exp.y ≤ 0, but still finite
  /// when only the energy expansion is invalid — check first_order_valid
  /// before ranking pairs by this value.
  double rho_min = 0.0;

  /// Builds the pair-invariant data for one speed pair.
  [[nodiscard]] static PairExpansion make(const ModelParams& params,
                                          double sigma1, double sigma2,
                                          int index1 = -1, int index2 = -1);
};

/// Per-pair warm-start seeds for the numeric (kExactOptimize) path:
/// w_opt of pair (i, j) — typically harvested from the same pair's solve
/// at a neighboring grid point of a parameter sweep — at slot i·K + j.
/// A seed of 0 means "no seed" (cold-start bracket). Seeds steer only how
/// fast the per-pair bracketing converges, never where (within numeric
/// tolerance), so chained sweeps stay equivalent to cold-started ones.
struct PairSeedTable {
  std::size_t k = 0;
  std::vector<double> w_opt;

  [[nodiscard]] bool empty() const noexcept { return w_opt.empty(); }
  [[nodiscard]] double seed(int i, int j) const noexcept {
    if (i < 0 || j < 0 || static_cast<std::size_t>(i) >= k ||
        static_cast<std::size_t>(j) >= k) {
      return 0.0;
    }
    const std::size_t slot =
        static_cast<std::size_t>(i) * k + static_cast<std::size_t>(j);
    return slot < w_opt.size() ? w_opt[slot] : 0.0;
  }
};

/// Outcome for one speed pair (σ1, σ2).
struct PairSolution {
  double sigma1 = 0.0;
  double sigma2 = 0.0;
  /// Positions of σ1/σ2 in the speed set (-1 when the pair was solved for
  /// speeds outside the set). Pair selection — best_for_sigma1, the
  /// single-speed filter — goes through these indices, never through
  /// floating-point equality on the speeds themselves.
  int sigma1_index = -1;
  int sigma2_index = -1;
  bool feasible = false;
  /// True when the first-order expansions have positive W coefficients for
  /// this pair (always true with silent errors only).
  bool first_order_valid = true;
  /// Minimum admissible bound ρ_{i,j} for this pair (Eq. (6) generalized);
  /// −inf when the time expansion is invalid (see PairExpansion::rho_min).
  double rho_min = 0.0;
  /// Chosen pattern size Wopt (Eq. (4)).
  double w_opt = 0.0;
  /// Unconstrained energy minimizer We (Eq. (5)).
  double w_energy = 0.0;
  /// Feasible interval [W1, W2] from the performance bound.
  double w_min = 0.0;
  double w_max = 0.0;
  double energy_overhead = 0.0;  ///< E(Wopt)/Wopt
  double time_overhead = 0.0;    ///< T(Wopt)/Wopt
};

/// Full solver outcome: the best pair plus every candidate, for reporting.
struct BiCritSolution {
  bool feasible = false;
  PairSolution best;
  std::vector<PairSolution> pairs;

  /// Best pair restricted to a given first-speed index (the per-row
  /// entries of the paper's §4.2 tables). Returns an infeasible
  /// PairSolution when no second speed satisfies the bound.
  [[nodiscard]] PairSolution best_for_sigma1_index(std::size_t index) const;

  /// Same, addressed by speed value: resolves `sigma1` to the nearest
  /// first speed present in `pairs` (no exact floating-point match
  /// required), then selects by index.
  [[nodiscard]] PairSolution best_for_sigma1(double sigma1) const;
};

/// BiCritSolver::min_rho_solution over any built expansion table — the
/// min-ρ best-effort pattern of the params the table was built for. The
/// batched model-axis panel derives each grid point's fallback from that
/// point's rewritten table through this.
[[nodiscard]] PairSolution min_rho_solution(const ExpansionSoA& table,
                                            SpeedPolicy policy);

/// The paper's O(K²) BiCrit solver (§3): enumerate speed pairs, discard
/// those whose ρ_{i,j} exceeds the bound, compute Wopt by Theorem 1, and
/// return the pair with the smallest energy overhead.
///
/// Construction precomputes the K² first-order expansions (time + energy),
/// per-pair ρ_min and validity flags; solve/solve_pair/min_rho_solution
/// afterwards are cheap lookups plus feasibility math. Reusing one solver
/// across many bounds (a ρ sweep) therefore costs the expansions once —
/// a prepared ClosedFormBackend serving a whole ρ panel builds on exactly
/// this property. The exception
/// is kExactOptimize, whose per-bound numeric optimization this cache
/// cannot help; core::ExactOptBackend (solver_backend.hpp) is its cached
/// counterpart.
///
/// Thread-safety contract (shared by every prepared SolverBackend):
/// immutable after construction — every member function is const and
/// reads only the construction-time cache, so one solver is safe to
/// share across threads without synchronization.
class BiCritSolver {
 public:
  /// Builds the K² expansion cache in one structure-of-arrays pass
  /// through the process-wide active SIMD kernel tier (scalar reference
  /// is bit-identical by contract).
  explicit BiCritSolver(ModelParams params);

  /// Adopts a prebuilt SoA table for the same parameters (the shared-pass
  /// construction: one ExpansionSoA::build serves this solver and any
  /// other consumer). Throws std::invalid_argument when the table's speed
  /// count does not match.
  BiCritSolver(ModelParams params, ExpansionSoA table);

  /// Solves BiCrit for performance bound `rho`. `seeds`, when non-null,
  /// warm-starts the per-pair numeric bracketing of kExactOptimize (other
  /// modes ignore it) — see PairSeedTable.
  [[nodiscard]] BiCritSolution solve(
      double rho, SpeedPolicy policy = SpeedPolicy::kTwoSpeed,
      EvalMode mode = EvalMode::kFirstOrder,
      const PairSeedTable* seeds = nullptr) const;

  /// Solves a single speed pair. Speeds from the model's speed set hit the
  /// precomputed cache; other values are expanded on the fly.
  [[nodiscard]] PairSolution solve_pair(double rho, double sigma1,
                                        double sigma2,
                                        EvalMode mode) const;

  /// Solves the speed pair at positions (i, j) of the speed set.
  [[nodiscard]] PairSolution solve_pair_by_index(double rho, std::size_t i,
                                                 std::size_t j,
                                                 EvalMode mode) const;

  /// Best-effort policy when no pair satisfies the bound: the pair with
  /// the smallest achievable bound ρ_{i,j}, run at its time-optimal
  /// pattern size (the tangency point of Eq. (6)). This is how the
  /// paper's figures keep plotting beyond the feasibility horizon (e.g.
  /// the λ ≥ 10⁻³ region of Figure 4, where the speed curves pin at the
  /// maximum speed). The returned solution has feasible = true but its
  /// time_overhead generally exceeds any requested ρ.
  [[nodiscard]] PairSolution min_rho_solution(
      SpeedPolicy policy = SpeedPolicy::kTwoSpeed) const;

  [[nodiscard]] const ModelParams& params() const noexcept { return params_; }

  /// The structure-of-arrays expansion table every solve reads — what the
  /// batched ρ chunks stream over.
  [[nodiscard]] const ExpansionSoA& expansion_table() const noexcept {
    return soa_;
  }

  [[nodiscard]] const NumericOptions& numeric_options() const noexcept {
    return numeric_options_;
  }

 private:
  [[nodiscard]] PairSolution solve_cached_pair(double rho,
                                               const PairExpansion& pair,
                                               EvalMode mode,
                                               double w_seed = 0.0) const;

  ModelParams params_;
  NumericOptions numeric_options_;
  /// One kernel pass over the K×K speed grid, pair (i, j) at slot i·K + j.
  ExpansionSoA soa_;
};

}  // namespace rexspeed::core
