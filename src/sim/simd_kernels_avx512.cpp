// AVX-512 tier of the SoA kernels: identical code shape to the AVX2 tier at
// twice the lane width. Compiled with -mavx512f -mavx512dq -ffp-contract=off
// for exactly this file (-mavx512f implies FMA support, which the contract
// flag keeps the compiler from using); dispatched only when
// __builtin_cpu_supports confirms the host.

#include "sim/simd_kernels.hpp"

#if defined(QCUT_SIMD_AVX512)

#include <immintrin.h>

#include "sim/simd_kernels_impl.hpp"

namespace qcut::sim::simd {

namespace {

struct Avx512Vec {
  using reg = __m512d;
  static constexpr index_t width = 8;
  static reg load(const double* p) noexcept { return _mm512_loadu_pd(p); }
  static void store(double* p, reg v) noexcept { _mm512_storeu_pd(p, v); }
  static reg set1(double x) noexcept { return _mm512_set1_pd(x); }
  static reg zero() noexcept { return _mm512_setzero_pd(); }
  static reg add(reg a, reg b) noexcept { return _mm512_add_pd(a, b); }
  static reg sub(reg a, reg b) noexcept { return _mm512_sub_pd(a, b); }
  static reg mul(reg a, reg b) noexcept { return _mm512_mul_pd(a, b); }

  /// A fixed lane permute: lane j of permute(a, lane_order(from)) is lane
  /// from[j] of a. The two-source permute with `a` as both sources: GCC 12
  /// warns on the undefined pass-through operand of _mm512_permutexvar_pd.
  using lanes = __m512i;
  static lanes lane_order(const int* from) noexcept {
    return _mm512_set_epi64(from[7], from[6], from[5], from[4], from[3], from[2], from[1],
                            from[0]);
  }
  static reg permute(reg a, lanes order) noexcept { return _mm512_permutex2var_pd(a, order, a); }

  /// A lane selection: blend(lane_mask(bits), a, b) takes lane j of b where
  /// bit j of `bits` is set and lane j of a elsewhere.
  using mask = __mmask8;
  static mask lane_mask(unsigned bits) noexcept { return static_cast<mask>(bits); }
  static reg blend(mask m, reg a, reg b) noexcept { return _mm512_mask_blend_pd(m, a, b); }
};

}  // namespace

const KernelTable& detail::avx512_table() noexcept {
  static const KernelTable table = SoaKernels<Avx512Vec>::table();
  return table;
}

}  // namespace qcut::sim::simd

#endif  // QCUT_SIMD_AVX512
