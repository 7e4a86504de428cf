#include "rexspeed/core/kernels/kernel_dispatch.hpp"

#include <cstdlib>

namespace rexspeed::core::kernels {

// Defined in kernels_avx2.cpp. Off x86 it returns scalar_ops().
[[nodiscard]] const KernelOps& avx2_ops() noexcept;

const char* to_string(KernelTier tier) noexcept {
  return tier == KernelTier::kAVX2 ? "avx2" : "scalar";
}

KernelTier choose_tier(bool force_scalar, bool has_avx2) noexcept {
  return !force_scalar && has_avx2 ? KernelTier::kAVX2 : KernelTier::kScalar;
}

namespace {

bool env_forces_scalar() noexcept {
  const char* value = std::getenv("REXSPEED_FORCE_SCALAR");
  return value != nullptr && value[0] == '1' && value[1] == '\0';
}

bool cpu_has_avx2() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

}  // namespace

KernelTier active_tier() noexcept {
  static const KernelTier tier =
      choose_tier(env_forces_scalar(), cpu_has_avx2());
  return tier;
}

const KernelOps& ops_for_tier(KernelTier tier) noexcept {
  return tier == KernelTier::kAVX2 ? avx2_ops() : scalar_ops();
}

const KernelOps& active_ops() noexcept { return ops_for_tier(active_tier()); }

std::vector<KernelTier> available_tiers() {
  std::vector<KernelTier> tiers{KernelTier::kScalar};
  if (cpu_has_avx2()) tiers.push_back(KernelTier::kAVX2);
  return tiers;
}

}  // namespace rexspeed::core::kernels
