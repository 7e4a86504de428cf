// AVX2 build_pair_table: 4-wide double lanes, bit-identical to the scalar
// reference.
//
// Bit-identity tactics (see docs/ARCHITECTURE.md):
//  * only IEEE correctly-rounded lane ops (add/sub/mul/div/sqrt) in the
//    scalar code's exact parse order — no reassociation, no FMA (the
//    library builds with -ffp-contract=off and this TU never enables FMA);
//  * every scalar branch becomes a compare + blend with the scalar
//    comparison's NaN semantics spelled out (ordered predicates, false on
//    NaN, to match `<=` and `>`).
//
// The intrinsics are gated per-function with __attribute__((target))
// instead of a TU-wide -mavx2 so no inline/template code in shared
// headers is ever compiled with AVX2 enabled (an ODR-selected AVX2 body
// would SIGILL on pre-AVX2 hardware).

#include "rexspeed/core/kernels/kernel_dispatch.hpp"

#if defined(__x86_64__) || defined(__i386__)

#include <immintrin.h>

#include <cstddef>
#include <limits>

#include "rexspeed/core/expansion_soa.hpp"
#include "rexspeed/core/model_params.hpp"

namespace rexspeed::core::kernels {
namespace {

#define REXSPEED_AVX2 __attribute__((target("avx2"), always_inline)) inline

REXSPEED_AVX2 __m256d blend(__m256d a, __m256d b, __m256d mask) {
  return _mm256_blendv_pd(a, b, mask);  // mask ? b : a
}

__attribute__((target("avx2"))) void build_pair_table_avx2(
    const ModelParams& params, ExpansionSoA& out) {
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d two = _mm256_set1_pd(2.0);
  const __m256d zero = _mm256_setzero_pd();
  const __m256d ninf =
      _mm256_set1_pd(-std::numeric_limits<double>::infinity());
  const __m256d pinf =
      _mm256_set1_pd(std::numeric_limits<double>::infinity());
  const __m256d lam = _mm256_set1_pd(params.total_error_rate());
  const __m256d lf = _mm256_set1_pd(params.lambda_failstop);
  const __m256d r = _mm256_set1_pd(params.recovery_s);
  const __m256d v = _mm256_set1_pd(params.verification_s);
  const __m256d chk = _mm256_set1_pd(params.checkpoint_s);
  const __m256d kappa = _mm256_set1_pd(params.kappa_mw);
  const __m256d idle = _mm256_set1_pd(params.idle_power_mw);
  const __m256d pio = _mm256_set1_pd(params.io_total_power());

  for (std::size_t s = 0; s < out.padded; s += 4) {
    const __m256d s1 = _mm256_loadu_pd(out.sigma1.data() + s);
    const __m256d s2 = _mm256_loadu_pd(out.sigma2.data() + s);
    // compute_power(σ) = idle + κ·σ·σ·σ, left-to-right.
    const __m256d pc1 = _mm256_add_pd(
        idle,
        _mm256_mul_pd(_mm256_mul_pd(_mm256_mul_pd(kappa, s1), s1), s1));
    const __m256d pc2 = _mm256_add_pd(
        idle,
        _mm256_mul_pd(_mm256_mul_pd(_mm256_mul_pd(kappa, s2), s2), s2));

    // time: x = (1 + λ(r + v/σ2) − λf·v/σ1) / σ1
    const __m256d tx = _mm256_div_pd(
        _mm256_sub_pd(
            _mm256_add_pd(
                one, _mm256_mul_pd(lam, _mm256_add_pd(r, _mm256_div_pd(v, s2)))),
            _mm256_div_pd(_mm256_mul_pd(lf, v), s1)),
        s1);
    // time: y = λ/(σ1σ2) − λf/(2σ1·σ1)
    const __m256d ty = _mm256_sub_pd(
        _mm256_div_pd(lam, _mm256_mul_pd(s1, s2)),
        _mm256_div_pd(lf, _mm256_mul_pd(_mm256_mul_pd(two, s1), s1)));
    // time: z = C + v/σ1
    const __m256d tz = _mm256_add_pd(chk, _mm256_div_pd(v, s1));

    // energy: x = pc1/σ1 + λ(r·pio + v·pc2/σ2)/σ1 − λf·v·pc1/(σ1σ1)
    const __m256d ex = _mm256_sub_pd(
        _mm256_add_pd(
            _mm256_div_pd(pc1, s1),
            _mm256_div_pd(
                _mm256_mul_pd(
                    lam, _mm256_add_pd(
                             _mm256_mul_pd(r, pio),
                             _mm256_div_pd(_mm256_mul_pd(v, pc2), s2))),
                s1)),
        _mm256_div_pd(_mm256_mul_pd(_mm256_mul_pd(lf, v), pc1),
                      _mm256_mul_pd(s1, s1)));
    // energy: y = λ·pc2/(σ1σ2) − λf·pc1/(2σ1·σ1)
    const __m256d ey = _mm256_sub_pd(
        _mm256_div_pd(_mm256_mul_pd(lam, pc2), _mm256_mul_pd(s1, s2)),
        _mm256_div_pd(_mm256_mul_pd(lf, pc1),
                      _mm256_mul_pd(_mm256_mul_pd(two, s1), s1)));
    // energy: z = C·pio + v·pc1/σ1
    const __m256d ez = _mm256_add_pd(
        _mm256_mul_pd(chk, pio),
        _mm256_div_pd(_mm256_mul_pd(v, pc1), s1));

    // rho_min: y ≤ 0 → −inf; z ≤ 0 → x; else x + 2√(y·z). LE_OQ is false
    // on NaN, like the scalar `<=`.
    const __m256d min_val = _mm256_add_pd(
        tx, _mm256_mul_pd(two, _mm256_sqrt_pd(_mm256_mul_pd(ty, tz))));
    __m256d rho_min =
        blend(min_val, tx, _mm256_cmp_pd(tz, zero, _CMP_LE_OQ));
    rho_min = blend(rho_min, ninf, _mm256_cmp_pd(ty, zero, _CMP_LE_OQ));

    // Energy argmin √(ez/ey) where the interior minimum exists, +inf
    // otherwise — hoisted here because it is ρ-independent.
    const __m256d has_interior =
        _mm256_and_pd(_mm256_cmp_pd(ey, zero, _CMP_GT_OQ),
                      _mm256_cmp_pd(ez, zero, _CMP_GT_OQ));
    const __m256d we =
        blend(pinf, _mm256_sqrt_pd(_mm256_div_pd(ez, ey)), has_interior);

    _mm256_storeu_pd(out.tx.data() + s, tx);
    _mm256_storeu_pd(out.ty.data() + s, ty);
    _mm256_storeu_pd(out.tz.data() + s, tz);
    _mm256_storeu_pd(out.ex.data() + s, ex);
    _mm256_storeu_pd(out.ey.data() + s, ey);
    _mm256_storeu_pd(out.ez.data() + s, ez);
    _mm256_storeu_pd(out.rho_min.data() + s, rho_min);
    _mm256_storeu_pd(out.we.data() + s, we);

    const __m256d valid =
        _mm256_and_pd(_mm256_cmp_pd(ty, zero, _CMP_GT_OQ),
                      _mm256_cmp_pd(ey, zero, _CMP_GT_OQ));
    const int bits = _mm256_movemask_pd(valid);
    for (int lane = 0; lane < 4; ++lane) {
      out.valid[s + static_cast<std::size_t>(lane)] =
          (bits >> lane) & 1 ? 1 : 0;
    }
  }
}

#undef REXSPEED_AVX2

}  // namespace

const KernelOps& avx2_ops() noexcept {
  static const KernelOps ops{"avx2", &build_pair_table_avx2};
  return ops;
}

}  // namespace rexspeed::core::kernels

#else  // non-x86 build: the AVX2 tier is unavailable, alias scalar.

namespace rexspeed::core::kernels {
const KernelOps& avx2_ops() noexcept { return scalar_ops(); }
}  // namespace rexspeed::core::kernels

#endif
