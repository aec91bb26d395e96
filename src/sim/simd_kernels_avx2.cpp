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
};

}  // namespace

const KernelTable& detail::avx2_table() noexcept {
  static const KernelTable table = SoaKernels<Avx2Vec>::table();
  return table;
}

}  // namespace qcut::sim::simd

#endif  // QCUT_SIMD_AVX2
