#pragma once

#include <cstddef>
#include <cstdlib>
#include <limits>
#include <new>
#include <vector>

#include "rexspeed/core/first_order.hpp"

namespace rexspeed::core {

namespace kernels {
struct KernelOps;
}  // namespace kernels

/// Minimal 64-byte-aligned allocator so every coefficient array starts on
/// a cache-line (and therefore SIMD-register) boundary. Only what
/// std::vector needs.
template <typename T>
struct AlignedAllocator {
  using value_type = T;
  static constexpr std::size_t kAlignment = 64;

  AlignedAllocator() noexcept = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U>&) noexcept {}

  [[nodiscard]] T* allocate(std::size_t n) {
    if (n == 0) return nullptr;
    void* p = ::operator new(n * sizeof(T), std::align_val_t{kAlignment});
    return static_cast<T*>(p);
  }
  void deallocate(T* p, std::size_t) noexcept {
    ::operator delete(p, std::align_val_t{kAlignment});
  }
  template <typename U>
  bool operator==(const AlignedAllocator<U>&) const noexcept {
    return true;
  }
};

using AlignedDoubles = std::vector<double, AlignedAllocator<double>>;

/// Structure-of-arrays cache of all K² first-order pair expansions for one
/// ModelParams: contiguous coefficient arrays (time x/y/z, energy x/y/z),
/// ρ_min, the speed values, and validity flags, indexed row-major — the
/// pair (i, j) lives at slot i·K + j. This is the layout the kernels
/// (core/kernels/) stream over; the per-pair caches of BiCritSolver and
/// ExactOptBackend are materialized *from* one build of this table, so
/// the expansion math runs once per ModelParams, not once per consumer.
///
/// Arrays are padded to a lane multiple (kLane) with inert slots
/// (valid = 0, benign coefficients) so kernels never need a scalar tail.
struct ExpansionSoA {
  /// Pad to 8 doubles: one 64-byte cache line, a multiple of the AVX2
  /// lane width (4).
  static constexpr std::size_t kLane = 8;

  std::size_t k = 0;       ///< speed count; count = k²
  std::size_t count = 0;   ///< live slots (k²)
  std::size_t padded = 0;  ///< count rounded up to a kLane multiple

  AlignedDoubles tx, ty, tz;  ///< time expansion coefficients x, y, z
  AlignedDoubles ex, ey, ez;  ///< energy expansion coefficients x, y, z
  AlignedDoubles sigma1, sigma2;  ///< the pair's speed values
  AlignedDoubles rho_min;         ///< per-pair feasibility threshold
  /// Unconstrained energy argmin √(z_E/y_E) where the energy expansion has
  /// an interior minimum, +inf otherwise. ρ-independent, so it is computed
  /// once at build time and streamed by eval_pairs instead of paying a
  /// divide + sqrt per lane per grid point (pure common-subexpression
  /// elimination: the build-time value is the same correctly-rounded
  /// result the eval would have produced).
  AlignedDoubles we;
  std::vector<unsigned char> valid;  ///< first_order_valid (ty>0 && ey>0)

  /// Builds the full table for `params` through the process-wide active
  /// kernel tier (scalar result is bit-identical by contract).
  [[nodiscard]] static ExpansionSoA build(const ModelParams& params);

  /// Builds through a specific tier's ops — the bit-comparability tests
  /// drive this with the scalar and AVX2 tiers side by side.
  [[nodiscard]] static ExpansionSoA build_with(const ModelParams& params,
                                               const kernels::KernelOps& ops);

  /// Rewrites this table in place for `params` through `ops` (params
  /// validated once, throws std::invalid_argument), reusing its arrays
  /// when the speed count is unchanged — how a batched model-axis panel
  /// reuses one scratch table across its grid. build/build_with run this
  /// same code on an empty table, so a rebuilt table is byte-identical to
  /// a fresh build for the same params and ops, padding slots included.
  void rebuild(const ModelParams& params, const kernels::KernelOps& ops);

  [[nodiscard]] std::size_t slot(std::size_t i, std::size_t j) const {
    return i * k + j;
  }
  [[nodiscard]] OverheadExpansion time_expansion(std::size_t s) const {
    return OverheadExpansion{tx[s], ty[s], tz[s]};
  }
  [[nodiscard]] OverheadExpansion energy_expansion(std::size_t s) const {
    return OverheadExpansion{ex[s], ey[s], ez[s]};
  }
};

}  // namespace rexspeed::core
