#pragma once

#include <cstddef>
#include <vector>

namespace rexspeed::core {

struct ModelParams;
struct ExpansionSoA;

namespace kernels {

/// The instruction-set tiers the expansion-table build ships in. Exactly
/// one tier is active per process (picked once at first use); the scalar
/// tier is the source of truth — the AVX2 tier must reproduce its outputs
/// bit for bit (it uses only IEEE correctly-rounded lane ops in the
/// scalar evaluation order, no FMA contraction, no reassociation).
enum class KernelTier {
  kScalar,  ///< portable reference (always available)
  kAVX2,    ///< 4-wide double lanes, x86-64 with AVX2
};

[[nodiscard]] const char* to_string(KernelTier tier) noexcept;

/// One tier's implementation of the one op still dispatched from the CPU.
/// A plain function pointer, so the dispatch is one indirect call per
/// table, never per pair.
struct KernelOps {
  const char* name = "scalar";

  /// Builds all K² first-order expansion coefficient slots of `out` in one
  /// pass — bit-identical to calling time_expansion/energy_expansion
  /// (+ rho_min, first-order validity) per pair.
  /// ExpansionSoA::rebuild validates `params` once, sizes the table and
  /// prefills sigma1/sigma2 (row-major: pair (i, j) at i·K + j) before
  /// the call; the op writes the coefficient, rho_min and valid slots
  /// [0, count) and may scribble on the padding, which rebuild
  /// canonicalizes afterwards.
  void (*build_pair_table)(const ModelParams& params, ExpansionSoA& out) =
      nullptr;
};

/// The portable reference tier (always available, the bit-identity
/// source of truth).
[[nodiscard]] const KernelOps& scalar_ops() noexcept;

/// A specific tier's ops. A tier the *build* cannot serve (kAVX2 off
/// x86) falls back to scalar_ops() — compare names to detect this.
/// Calling the AVX2 ops on hardware that lacks the feature is undefined
/// (SIGILL); consult available_tiers() first.
[[nodiscard]] const KernelOps& ops_for_tier(KernelTier tier) noexcept;

/// The tier the running CPU supports, probed once at first use (cpuid).
/// Setting REXSPEED_FORCE_SCALAR=1 in the environment pins the scalar
/// tier regardless of hardware; the value is read once, at the first
/// call.
[[nodiscard]] KernelTier active_tier() noexcept;

/// The active tier's ops — what ExpansionSoA::build dispatches through.
[[nodiscard]] const KernelOps& active_ops() noexcept;

/// Tiers this build could run on this machine (always contains kScalar).
/// Diagnostic only (the CLI `kernels` command).
[[nodiscard]] std::vector<KernelTier> available_tiers();

/// Pure tier-selection rule, exposed for tests: what active_tier() would
/// pick given the probed facts.
[[nodiscard]] KernelTier choose_tier(bool force_scalar,
                                     bool has_avx2) noexcept;

// The per-bound loops over a built table. They run once per grid point
// and are plain scalar code: AVX2 versions of both measured no faster
// end to end, so they are not dispatched.

/// Evaluates every cached pair against one bound `rho` (> 0) — the
/// kFirstOrder branch of BiCritSolver::solve_cached_pair per slot. Output
/// arrays have table.padded entries; w_min/w_max carry the pair's
/// feasible interval [W1, W2] so winner reconstruction never re-solves
/// the quadratic. Infeasible (or invalid, or padding) slots are
/// canonicalized to w_opt = 0, w_min = 0, w_max = 0, energy = +inf,
/// feasible = 0.
void eval_pairs(const ExpansionSoA& table, double rho, double w_cap,
                double* w_opt, double* w_min, double* w_max, double* energy,
                unsigned char* feasible);

/// Classifies `count` cached exact/interleaved expansions against one
/// bound: 0 = infeasible (!(rho_min ≤ ρ)), 1 = pure cache lookup
/// (time_at_we ≤ ρ), 2 = tight (needs one boundary bisection) — the
/// branch structure of the exact and interleaved backends' per-slot solve,
/// hoisted into one pass per grid point.
void classify_pairs(const double* rho_min, const double* time_at_we,
                    std::size_t count, double rho, unsigned char* cls);

}  // namespace kernels
}  // namespace rexspeed::core
