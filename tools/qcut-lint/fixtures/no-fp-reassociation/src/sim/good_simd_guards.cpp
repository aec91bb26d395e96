// Known-good: the guarded SIMD surface — contraction explicitly off, and
// the kernel-tier idiom of separate multiply and add wrappers, whose names
// stay clear of the intrinsic vocabulary.
#include <vector>

namespace fixture_good_simd_guards {

#pragma STDC FP_CONTRACT OFF

__attribute__((optimize("-ffp-contract=off")))
double strict_dot(const std::vector<double>& a, const std::vector<double>& b) {
  double total = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) total += a[i] * b[i];
  return total;
}

extern double _mm256_mul_pd_lookalike(double, double);
extern double _mm256_add_pd_lookalike(double, double);

// The kernel-tier idiom: a*b+c as two roundings, exactly as the scalar
// engine computes it.
double mul(double a, double b) { return _mm256_mul_pd_lookalike(a, b); }
double add(double a, double b) { return _mm256_add_pd_lookalike(a, b); }

double kernel_body(const std::vector<double>& a, const std::vector<double>& b) {
  // Comments naming fma, _mm512_fmadd_pd or #pragma omp simd must not fire.
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) acc = add(acc, mul(a[i], b[i]));
  return acc;
}

}  // namespace fixture_good_simd_guards
