// Known-bad: the SIMD pragma/intrinsic surface — every way a kernel could
// smuggle in reassociation or contraction, which would break the SIMD
// tiers' bit-for-bit equality with the Scalar tier.
#include <vector>

namespace fixture_bad_simd_pragmas {

double omp_simd_sum(const std::vector<double>& values) {
  double total = 0.0;
#pragma omp simd reduction(+ : total)  // FIRE(no-fp-reassociation)
  for (int i = 0; i < static_cast<int>(values.size()); ++i) {
    total += values[static_cast<std::size_t>(i)];
  }
  return total;
}

double omp_simd_loop(std::vector<double>& values) {
#pragma omp simd  // FIRE(no-fp-reassociation)
  for (int i = 0; i < static_cast<int>(values.size()); ++i) {
    values[static_cast<std::size_t>(i)] *= 2.0;
  }
  return values.empty() ? 0.0 : values.front();
}

#pragma GCC optimize("-ffp-contract=fast")  // FIRE(no-fp-reassociation)

__attribute__((optimize("-ffp-contract=on")))  // FIRE(no-fp-reassociation)
double contracted_dot(const std::vector<double>& a, const std::vector<double>& b) {
  double total = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) total += a[i] * b[i];
  return total;
}

double fma_intrinsic(double a, double b, double c) {
  extern double _mm256_fmadd_pd_lookalike(double, double, double);  // FIRE(no-fp-reassociation)
  return _mm256_fmadd_pd_lookalike(a, b, c);                        // FIRE(no-fp-reassociation)
}

double libm_fma(double a, double b, double c) {
  extern double fma(double, double, double);  // FIRE(no-fp-reassociation)
  return fma(a, b, c);                        // FIRE(no-fp-reassociation)
}

double negated_fma_intrinsics(double a, double b, double c) {
  extern double _mm256_fnmadd_pd_lookalike(double, double, double);  // FIRE(no-fp-reassociation)
  extern double _mm512_fnmsub_pd_lookalike(double, double, double);  // FIRE(no-fp-reassociation)
  return _mm256_fnmadd_pd_lookalike(a, b, c) +                       // FIRE(no-fp-reassociation)
         _mm512_fnmsub_pd_lookalike(a, b, c);                        // FIRE(no-fp-reassociation)
}

double std_and_builtin_fma(double a, double b, double c) {
  return std::fma(a, b, c) + __builtin_fma(a, b, c);  // FIRE(no-fp-reassociation) FIRE(no-fp-reassociation)
}

// An FMA cannot be allowed: the annotation is well formed and justified,
// and the finding still fires.
double annotated_fma(double a, double b, double c) {
  extern double _mm512_fmadd_pd_lookalike(double, double, double);  // FIRE(no-fp-reassociation)
  // qcut-lint: allow(no-fp-reassociation) -- a*b+c contracted on purpose
  return _mm512_fmadd_pd_lookalike(a, b, c);  // FIRE(no-fp-reassociation)
}

}  // namespace fixture_bad_simd_pragmas
