// AVX2 tier of the SoA kernels. This translation unit is the only place
// (with its AVX-512 sibling) allowed to emit AVX instructions: CMake adds
// -mavx2 -ffp-contract=off to exactly this file, and best_isa() never hands
// out this table unless __builtin_cpu_supports confirms the host. The policy
// has no fused multiply-add, so every lane rounds like the Scalar tier.

#include "sim/simd_kernels.hpp"

#if defined(QCUT_SIMD_AVX2)

#include <immintrin.h>

#include "sim/simd_kernels_impl.hpp"

namespace qcut::sim::simd {

namespace {

struct Avx2Vec {
  using reg = __m256d;
  static constexpr index_t width = 4;
  static reg load(const double* p) noexcept { return _mm256_loadu_pd(p); }
  static void store(double* p, reg v) noexcept { _mm256_storeu_pd(p, v); }
  static reg set1(double x) noexcept { return _mm256_set1_pd(x); }
  static reg zero() noexcept { return _mm256_setzero_pd(); }
  static reg add(reg a, reg b) noexcept { return _mm256_add_pd(a, b); }
  static reg sub(reg a, reg b) noexcept { return _mm256_sub_pd(a, b); }
  static reg mul(reg a, reg b) noexcept { return _mm256_mul_pd(a, b); }

  /// A fixed lane permute: lane j of permute(a, lane_order(from)) is lane
  /// from[j] of a. AVX2 permutes doubles across the 128-bit halves only as
  /// pairs of 32-bit elements.
  using lanes = __m256i;
  static lanes lane_order(const int* from) noexcept {
    return _mm256_setr_epi32(2 * from[0], 2 * from[0] + 1, 2 * from[1], 2 * from[1] + 1,
                             2 * from[2], 2 * from[2] + 1, 2 * from[3], 2 * from[3] + 1);
  }
  static reg permute(reg a, lanes order) noexcept {
    return _mm256_castps_pd(_mm256_permutevar8x32_ps(_mm256_castpd_ps(a), order));
  }

  /// A lane selection: blend(lane_mask(bits), a, b) takes lane j of b where
  /// bit j of `bits` is set and lane j of a elsewhere.
  using mask = __m256d;
  static mask lane_mask(unsigned bits) noexcept {
    const auto lane = [bits](int j) { return (bits >> j & 1u) != 0 ? -1LL : 0LL; };
    return _mm256_castsi256_pd(_mm256_setr_epi64x(lane(0), lane(1), lane(2), lane(3)));
  }
  static reg blend(mask m, reg a, reg b) noexcept { return _mm256_blendv_pd(a, b, m); }
};

}  // namespace

const KernelTable& detail::avx2_table() noexcept {
  static const KernelTable table = SoaKernels<Avx2Vec>::table();
  return table;
}

}  // namespace qcut::sim::simd

#endif  // QCUT_SIMD_AVX2
