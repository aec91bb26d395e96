#pragma once
// Width-parameterized SoA kernel bodies, instantiated once per ISA tier.
//
// Included ONLY by the simd_kernels*.cpp translation units; each provides a
// vector-ops policy V (register type, width, load/store/mul/add/sub; the AVX
// policies also a lane permute and a lane blend, see simd_kernels.hpp) and
// instantiates SoaKernels<V>::table(). The Scalar tier is the width-1
// instantiation of the same code, so every tier walks identical index
// sequences and differs only in lane width.
//
// Rounding contract: every lane performs the same IEEE operations, grouped
// the same way, as std::complex<double> arithmetic in
// StateVector::apply_matrix, so every tier is bit-for-bit equal to the
// Scalar tier (the width-1 instantiation) and == to apply_matrix:
//   * a complex product a*b is (ar*br - ai*bi, ar*bi + ai*br) (mul_re /
//     mul_im below; products commute exactly, so the operand order inside
//     a product does not matter);
//   * m00*a0 + m01*a1 adds two whole complex products;
//   * acc += m*in adds one whole complex product at a time, starting from
//     +0.0 (so even the sign of a zero matches).
// No policy may contract a*b+c into an FMA: the tier translation units
// compile with -ffp-contract=off and the policies expose no fused op.
//
// Index scheme. Amplitude groups of an op whose lowest sorted qubit is q0
// decompose as g = (h << q0) | l with l < run = 2^q0: all insertion
// positions are >= q0, so
//   insert_zero_bits(g, sorted_qubits) == insert_zero_bits(h << q0, ...) + l
// and every per-op offset (diag/perm/control/target masks) has bits only at
// gate-qubit positions >= q0. Two paths follow from where q0 sits relative
// to the lane count W = V::width:
//   * q0 >= log2(W) (contiguous runs): each group row is a run of `run >= W`
//     amplitudes, vectorized with plain unaligned loads.
//   * q0 < log2(W) (in-register): the op's qubits below log2(W) index lanes
//     inside one W-amplitude vector. The kernels walk lane-aligned vectors
//     (each holds W >> (number of such qubits) whole groups) and load one
//     vector per pattern of the op's higher qubits. A column's partner
//     amplitudes come from a fixed lane permute (V::permute), each lane's
//     matrix entry, factor or phase from a per-lane constant built once per
//     call, and V::blend keeps every lane the reference does not write.
//     Partial vectors at the ends of [lo, hi) go through the run loops,
//     whose scalar tails then do the work. GenericKQ stays a scalar loop,
//     and the Scalar tier (W = 1) never takes this path.
// Both paths perform each lane's products and sums exactly as the scalar
// loops do, so the split point between them never changes a bit.

#include <algorithm>
#include <cstddef>
#include <span>
#include <vector>

#include "common/bits.hpp"
#include "sim/simd_kernels.hpp"

namespace qcut::sim::simd {

template <typename V>
struct SoaKernels {
  using reg = typename V::reg;
  static constexpr index_t kW = V::width;
  /// Qubits below kLaneBits index lanes inside one vector (none on the
  /// Scalar tier, whose width is 1).
  static constexpr int kLaneBits = log2_exact(kW);
  static constexpr index_t kLaneMask = kW - 1;
  /// Vectors (patterns of an op's qubits at or above kLaneBits) and
  /// permutation moves the in-register path holds at once.
  static constexpr std::size_t kMaxVectors = 8;

  /// Real and imaginary parts of the complex product (ar + i ai)(br + i bi),
  /// lane-wise, rounded exactly as std::complex<double> rounds them.
  static reg mul_re(reg ar, reg ai, reg br, reg bi) noexcept {
    return V::sub(V::mul(ar, br), V::mul(ai, bi));
  }
  static reg mul_im(reg ar, reg ai, reg br, reg bi) noexcept {
    return V::add(V::mul(ar, bi), V::mul(ai, br));
  }

  /// The same two expressions on plain doubles, for the scalar tails.
  static double mul_re1(double ar, double ai, double br, double bi) noexcept {
    return ar * br - ai * bi;
  }
  static double mul_im1(double ar, double ai, double br, double bi) noexcept {
    return ar * bi + ai * br;
  }

  /// Multiplies the contiguous amplitudes [p, p+count) in place by the
  /// complex constant (fr, fi).
  static void scale_run(double* re, double* im, index_t count, double fr, double fi) {
    const reg vfr = V::set1(fr);
    const reg vfi = V::set1(fi);
    index_t l = 0;
    for (; l + kW <= count; l += kW) {
      const reg ar = V::load(re + l);
      const reg ai = V::load(im + l);
      V::store(re + l, mul_re(ar, ai, vfr, vfi));
      V::store(im + l, mul_im(ar, ai, vfr, vfi));
    }
    for (; l < count; ++l) {
      const double ar = re[l];
      const double ai = im[l];
      re[l] = mul_re1(ar, ai, fr, fi);
      im[l] = mul_im1(ar, ai, fr, fi);
    }
  }

  // ---- Contiguous runs: ops with q0 >= kLaneBits, and the partial vectors at
  // the ends of an in-register range ----------------------------------------

  static void diagonal_runs(const SoaSpan& s, const CompiledOp& op, index_t lo, index_t hi) {
    const auto& qs = op.sorted_qubits;
    const int q0 = qs[0];
    const index_t run = index_t{1} << q0;
    index_t g = lo;
    while (g < hi) {
      const index_t l0 = g & (run - 1);
      const index_t lend = std::min<index_t>(run, l0 + (hi - g));
      const index_t base = insert_zero_bits(g, qs) - l0;
      for (const auto& [offset, factor] : op.diag_factors) {
        scale_run(s.re + base + offset + l0, s.im + base + offset + l0, lend - l0,
                  factor.real(), factor.imag());
      }
      g += lend - l0;
    }
  }

  static void permutation_runs(const SoaSpan& s, const CompiledOp& op, index_t lo,
                               index_t hi) {
    const auto& qs = op.sorted_qubits;
    const int q0 = qs[0];
    const index_t run = index_t{1} << q0;
    const std::size_t moves = op.perm_dst.size();
    index_t g = lo;
    while (g < hi) {
      const index_t l0 = g & (run - 1);
      const index_t lend = std::min<index_t>(run, l0 + (hi - g));
      const index_t base = insert_zero_bits(g, qs) - l0;
      index_t l = l0;
      for (; l + kW <= lend; l += kW) {
        reg br[8];
        reg bi[8];
        for (std::size_t i = 0; i < moves; ++i) {
          br[i] = V::load(s.re + base + op.perm_src[i] + l);
          bi[i] = V::load(s.im + base + op.perm_src[i] + l);
        }
        for (std::size_t i = 0; i < moves; ++i) {
          double* dr = s.re + base + op.perm_dst[i] + l;
          double* di = s.im + base + op.perm_dst[i] + l;
          if (op.perm_phase_is_one[i] != 0) {
            V::store(dr, br[i]);
            V::store(di, bi[i]);
          } else {
            const reg pr = V::set1(op.perm_phase[i].real());
            const reg pi = V::set1(op.perm_phase[i].imag());
            V::store(dr, mul_re(pr, pi, br[i], bi[i]));
            V::store(di, mul_im(pr, pi, br[i], bi[i]));
          }
        }
      }
      for (; l < lend; ++l) {
        double br[8];
        double bi[8];
        for (std::size_t i = 0; i < moves; ++i) {
          br[i] = s.re[base + op.perm_src[i] + l];
          bi[i] = s.im[base + op.perm_src[i] + l];
        }
        for (std::size_t i = 0; i < moves; ++i) {
          const index_t d = base + op.perm_dst[i] + l;
          if (op.perm_phase_is_one[i] != 0) {
            s.re[d] = br[i];
            s.im[d] = bi[i];
          } else {
            const double pr = op.perm_phase[i].real();
            const double pi = op.perm_phase[i].imag();
            s.re[d] = mul_re1(pr, pi, br[i], bi[i]);
            s.im[d] = mul_im1(pr, pi, br[i], bi[i]);
          }
        }
      }
      g += lend - l0;
    }
  }

  /// Shared 2x2 body: applies [[m00 m01],[m10 m11]] to the amplitude pairs
  /// (base+off0+l, base+off1+l) for l in group runs of [lo, hi). Each output
  /// is the sum of two whole complex products, as in m00*a0 + m01*a1.
  static void two_level(const SoaSpan& s, std::span<const int> qs, const linalg::CMat& m,
                        index_t off0, index_t off1, index_t lo, index_t hi) {
    const double m00r = m(0, 0).real(), m00i = m(0, 0).imag();
    const double m01r = m(0, 1).real(), m01i = m(0, 1).imag();
    const double m10r = m(1, 0).real(), m10i = m(1, 0).imag();
    const double m11r = m(1, 1).real(), m11i = m(1, 1).imag();
    const int q0 = qs[0];
    const index_t run = index_t{1} << q0;
    const reg v00r = V::set1(m00r), v00i = V::set1(m00i);
    const reg v01r = V::set1(m01r), v01i = V::set1(m01i);
    const reg v10r = V::set1(m10r), v10i = V::set1(m10i);
    const reg v11r = V::set1(m11r), v11i = V::set1(m11i);
    index_t g = lo;
    while (g < hi) {
      const index_t l0 = g & (run - 1);
      const index_t lend = std::min<index_t>(run, l0 + (hi - g));
      const index_t base = insert_zero_bits(g, qs) - l0;
      double* r0 = s.re + base + off0;
      double* i0 = s.im + base + off0;
      double* r1 = s.re + base + off1;
      double* i1 = s.im + base + off1;
      index_t l = l0;
      for (; l + kW <= lend; l += kW) {
        const reg a0r = V::load(r0 + l), a0i = V::load(i0 + l);
        const reg a1r = V::load(r1 + l), a1i = V::load(i1 + l);
        V::store(r0 + l, V::add(mul_re(v00r, v00i, a0r, a0i), mul_re(v01r, v01i, a1r, a1i)));
        V::store(i0 + l, V::add(mul_im(v00r, v00i, a0r, a0i), mul_im(v01r, v01i, a1r, a1i)));
        V::store(r1 + l, V::add(mul_re(v10r, v10i, a0r, a0i), mul_re(v11r, v11i, a1r, a1i)));
        V::store(i1 + l, V::add(mul_im(v10r, v10i, a0r, a0i), mul_im(v11r, v11i, a1r, a1i)));
      }
      for (; l < lend; ++l) {
        const double a0r = r0[l], a0i = i0[l];
        const double a1r = r1[l], a1i = i1[l];
        r0[l] = mul_re1(m00r, m00i, a0r, a0i) + mul_re1(m01r, m01i, a1r, a1i);
        i0[l] = mul_im1(m00r, m00i, a0r, a0i) + mul_im1(m01r, m01i, a1r, a1i);
        r1[l] = mul_re1(m10r, m10i, a0r, a0i) + mul_re1(m11r, m11i, a1r, a1i);
        i1[l] = mul_im1(m10r, m10i, a0r, a0i) + mul_im1(m11r, m11i, a1r, a1i);
      }
      g += lend - l0;
    }
  }

  /// Dense 4x4 over the pattern offsets off[4]: acc starts at +0.0 and adds
  /// one whole complex product per column, as acc += m(r, c) * in[c] does.
  static void generic_2q_runs(const SoaSpan& s, const CompiledOp& op, const index_t (&off)[4],
                              index_t lo, index_t hi) {
    const auto& qs = op.sorted_qubits;
    double mr[4][4];
    double mi[4][4];
    for (int r = 0; r < 4; ++r) {
      for (int c = 0; c < 4; ++c) {
        mr[r][c] = op.matrix(static_cast<std::size_t>(r), static_cast<std::size_t>(c)).real();
        mi[r][c] = op.matrix(static_cast<std::size_t>(r), static_cast<std::size_t>(c)).imag();
      }
    }
    const int q0 = qs[0];
    const index_t run = index_t{1} << q0;
    index_t g = lo;
    while (g < hi) {
      const index_t l0 = g & (run - 1);
      const index_t lend = std::min<index_t>(run, l0 + (hi - g));
      const index_t base = insert_zero_bits(g, qs) - l0;
      index_t l = l0;
      for (; l + kW <= lend; l += kW) {
        reg ar[4];
        reg ai[4];
        for (int c = 0; c < 4; ++c) {
          ar[c] = V::load(s.re + base + off[c] + l);
          ai[c] = V::load(s.im + base + off[c] + l);
        }
        for (int r = 0; r < 4; ++r) {
          reg accr = V::zero();
          reg acci = V::zero();
          for (int c = 0; c < 4; ++c) {
            const reg wr = V::set1(mr[r][c]);
            const reg wi = V::set1(mi[r][c]);
            accr = V::add(accr, mul_re(wr, wi, ar[c], ai[c]));
            acci = V::add(acci, mul_im(wr, wi, ar[c], ai[c]));
          }
          V::store(s.re + base + off[r] + l, accr);
          V::store(s.im + base + off[r] + l, acci);
        }
      }
      for (; l < lend; ++l) {
        double inr[4];
        double ini[4];
        for (int c = 0; c < 4; ++c) {
          inr[c] = s.re[base + off[c] + l];
          ini[c] = s.im[base + off[c] + l];
        }
        for (int r = 0; r < 4; ++r) {
          double accr = 0.0;
          double acci = 0.0;
          for (int c = 0; c < 4; ++c) {
            accr += mul_re1(mr[r][c], mi[r][c], inr[c], ini[c]);
            acci += mul_im1(mr[r][c], mi[r][c], inr[c], ini[c]);
          }
          s.re[base + off[r] + l] = accr;
          s.im[base + off[r] + l] = acci;
        }
      }
      g += lend - l0;
    }
  }

  // ---- In-register path: ops with q0 < kLaneBits on the AVX tiers ---------

  /// Mask of the op's qubits that index lanes.
  static index_t lane_qubits(std::span<const int> qs) noexcept {
    index_t bits = 0;
    for (const int q : qs) {
      if (q < kLaneBits) bits |= pow2(q);
    }
    return bits;
  }

  /// Index of `high` in highs[0, n), appended when absent.
  static std::size_t slot_of(index_t (&highs)[kMaxVectors], std::size_t& n, index_t high) {
    for (std::size_t i = 0; i < n; ++i) {
      if (highs[i] == high) return i;
    }
    highs[n] = high;
    return n++;
  }

  /// Walks the groups [lo, hi) of an op on sorted qubits `qs` as whole
  /// lane-aligned vectors: calls vector(base) with the first amplitude index
  /// of each vector whose groups all lie in the range (the op's qubit bits of
  /// `base` are zero), and runs(a, b) for the partial vectors at either end.
  template <typename Runs, typename Vector>
  static void over_vectors(std::span<const int> qs, index_t lo, index_t hi, const Runs& runs,
                           const Vector& vector) {
    const int shift = kLaneBits - popcount(lane_qubits(qs));  // log2(groups per vector)
    const index_t vlo = (lo + (index_t{1} << shift) - 1) >> shift;
    const index_t vhi = hi >> shift;
    if (vlo >= vhi) {
      runs(lo, hi);
      return;
    }
    if (lo < (vlo << shift)) runs(lo, vlo << shift);
    for (index_t v = vlo; v < vhi; ++v) vector(insert_zero_bits(v << shift, qs));
    if ((vhi << shift) < hi) runs(vhi << shift, hi);
  }

  /// Dense in-register body: pattern p < K of a group sits at offset off[p]
  /// from the group's base, and output pattern r becomes the sum over columns
  /// c, in column order, of m(r, c) * in[c] — from +0.0 when kFromZero (as
  /// acc += m * in does), else the bare sum of the K products (as
  /// m00*a0 + m01*a1 does). Lanes no pattern maps to keep their amplitude.
  template <std::size_t K, bool kFromZero, typename Runs>
  static void dense_lanes(const SoaSpan& s, std::span<const int> qs, const linalg::CMat& m,
                          const index_t (&off)[K], index_t lo, index_t hi, const Runs& runs) {
    const index_t lanes = lane_qubits(qs);
    index_t highs[kMaxVectors] = {};
    std::size_t nh = 0;
    std::size_t vec[K] = {};  // the vector pattern p lives in
    for (std::size_t p = 0; p < K; ++p) vec[p] = slot_of(highs, nh, off[p] & ~kLaneMask);
    typename V::lanes from[K];
    for (std::size_t c = 0; c < K; ++c) {
      int order[kW];
      for (index_t j = 0; j < kW; ++j) {
        order[j] = static_cast<int>((j & ~lanes) | (off[c] & kLaneMask));
      }
      from[c] = V::lane_order(order);
    }
    reg wr[K][K] = {};  // [vector][column]: each lane's row entry
    reg wi[K][K] = {};
    typename V::mask written[K] = {};
    for (std::size_t o = 0; o < nh; ++o) {
      double cr[K][kW] = {};
      double ci[K][kW] = {};
      unsigned bits = 0;
      for (std::size_t r = 0; r < K; ++r) {
        if (vec[r] != o) continue;
        for (index_t j = 0; j < kW; ++j) {
          if ((j & lanes) != (off[r] & kLaneMask)) continue;
          bits |= 1u << j;
          for (std::size_t c = 0; c < K; ++c) {
            cr[c][j] = m(r, c).real();
            ci[c][j] = m(r, c).imag();
          }
        }
      }
      written[o] = V::lane_mask(bits);
      for (std::size_t c = 0; c < K; ++c) {
        wr[o][c] = V::load(cr[c]);
        wi[o][c] = V::load(ci[c]);
      }
    }
    over_vectors(qs, lo, hi, runs, [&](index_t base) {
      reg xr[K];
      reg xi[K];
      for (std::size_t o = 0; o < nh; ++o) {
        xr[o] = V::load(s.re + base + highs[o]);
        xi[o] = V::load(s.im + base + highs[o]);
      }
      reg inr[K];
      reg ini[K];
      for (std::size_t c = 0; c < K; ++c) {
        inr[c] = V::permute(xr[vec[c]], from[c]);
        ini[c] = V::permute(xi[vec[c]], from[c]);
      }
      for (std::size_t o = 0; o < nh; ++o) {
        reg accr = mul_re(wr[o][0], wi[o][0], inr[0], ini[0]);
        reg acci = mul_im(wr[o][0], wi[o][0], inr[0], ini[0]);
        if constexpr (kFromZero) {
          accr = V::add(V::zero(), accr);
          acci = V::add(V::zero(), acci);
        }
        for (std::size_t c = 1; c < K; ++c) {
          accr = V::add(accr, mul_re(wr[o][c], wi[o][c], inr[c], ini[c]));
          acci = V::add(acci, mul_im(wr[o][c], wi[o][c], inr[c], ini[c]));
        }
        V::store(s.re + base + highs[o], V::blend(written[o], xr[o], accr));
        V::store(s.im + base + highs[o], V::blend(written[o], xi[o], acci));
      }
    });
  }

  /// One permutation move: the amplitude at pattern offset `src` lands at
  /// `dst`, times `phase` when `phased`. A diagonal factor is the move
  /// (off, off, factor, true).
  struct Move {
    index_t dst = 0;
    index_t src = 0;
    cx phase{1.0, 0.0};
    bool phased = false;
  };

  /// Moves in-register body (Diagonal, Permutation): every written lane takes
  /// one lane of one source vector, permuted into place and multiplied by its
  /// phase where the move has one; lanes no move writes keep their amplitude.
  template <typename Runs>
  static void moves_lanes(const SoaSpan& s, std::span<const int> qs, std::span<const Move> moves,
                          index_t lo, index_t hi, const Runs& runs) {
    const index_t lanes = lane_qubits(qs);
    index_t highs[kMaxVectors] = {};
    std::size_t nh = 0;
    // One term per (destination vector, source vector) pair of some move:
    // per-lane sources and phases first, then the registers built from them.
    struct Term {
      std::size_t dst = 0;
      std::size_t src = 0;
      int from[kW] = {};
      double pr[kW] = {};
      double pi[kW] = {};
      unsigned written = 0;
      unsigned phased = 0;
      bool permuted = false;
      typename V::lanes order{};
      typename V::mask write_mask{};
      typename V::mask phase_mask{};
      reg vpr{};
      reg vpi{};
    };
    Term terms[kMaxVectors];
    std::size_t nt = 0;
    for (const Move& mv : moves) {
      const std::size_t d = slot_of(highs, nh, mv.dst & ~kLaneMask);
      const std::size_t sv = slot_of(highs, nh, mv.src & ~kLaneMask);
      std::size_t t = 0;
      while (t < nt && (terms[t].dst != d || terms[t].src != sv)) ++t;
      Term& term = terms[t];
      if (t == nt) {
        term.dst = d;
        term.src = sv;
        for (index_t j = 0; j < kW; ++j) term.from[j] = static_cast<int>(j);
        ++nt;
      }
      for (index_t j = 0; j < kW; ++j) {
        if ((j & lanes) != (mv.dst & kLaneMask)) continue;
        term.from[j] = static_cast<int>((j & ~lanes) | (mv.src & kLaneMask));
        term.pr[j] = mv.phase.real();
        term.pi[j] = mv.phase.imag();
        term.written |= 1u << j;
        if (mv.phased) term.phased |= 1u << j;
      }
    }
    bool stored[kMaxVectors] = {};
    for (std::size_t t = 0; t < nt; ++t) {
      Term& term = terms[t];
      for (index_t j = 0; j < kW; ++j) {
        term.permuted = term.permuted || term.from[j] != static_cast<int>(j);
      }
      term.order = V::lane_order(term.from);
      term.write_mask = V::lane_mask(term.written);
      term.phase_mask = V::lane_mask(term.phased);
      term.vpr = V::load(term.pr);
      term.vpi = V::load(term.pi);
      stored[term.dst] = true;
    }
    over_vectors(qs, lo, hi, runs, [&](index_t base) {
      reg xr[kMaxVectors];
      reg xi[kMaxVectors];
      for (std::size_t h = 0; h < nh; ++h) {
        xr[h] = V::load(s.re + base + highs[h]);
        xi[h] = V::load(s.im + base + highs[h]);
      }
      for (std::size_t o = 0; o < nh; ++o) {
        if (!stored[o]) continue;
        reg yr = xr[o];
        reg yi = xi[o];
        for (std::size_t t = 0; t < nt; ++t) {
          const Term& term = terms[t];
          if (term.dst != o) continue;
          reg br = xr[term.src];
          reg bi = xi[term.src];
          if (term.permuted) {
            br = V::permute(br, term.order);
            bi = V::permute(bi, term.order);
          }
          if (term.phased != 0) {
            const reg qr = mul_re(term.vpr, term.vpi, br, bi);
            const reg qi = mul_im(term.vpr, term.vpi, br, bi);
            br = V::blend(term.phase_mask, br, qr);
            bi = V::blend(term.phase_mask, bi, qi);
          }
          yr = V::blend(term.write_mask, yr, br);
          yi = V::blend(term.write_mask, yi, bi);
        }
        V::store(s.re + base + highs[o], yr);
        V::store(s.im + base + highs[o], yi);
      }
    });
  }

  // ---- Kernel entry points --------------------------------------------------

  static void diagonal(const SoaSpan& s, const CompiledOp& op, index_t lo, index_t hi) {
    if (op.diag_factors.empty()) return;  // identity
    const auto runs = [&](index_t a, index_t b) { diagonal_runs(s, op, a, b); };
    if constexpr (kW > 1) {
      if (op.sorted_qubits[0] < kLaneBits && op.diag_factors.size() <= kMaxVectors) {
        Move moves[kMaxVectors];
        std::size_t n = 0;
        for (const auto& [offset, factor] : op.diag_factors) {
          moves[n++] = Move{offset, offset, factor, true};
        }
        moves_lanes(s, op.sorted_qubits, std::span<const Move>(moves, n), lo, hi, runs);
        return;
      }
    }
    runs(lo, hi);
  }

  static void permutation(const SoaSpan& s, const CompiledOp& op, index_t lo, index_t hi) {
    if (op.perm_dst.empty()) return;  // identity
    const auto runs = [&](index_t a, index_t b) { permutation_runs(s, op, a, b); };
    if constexpr (kW > 1) {
      if (op.sorted_qubits[0] < kLaneBits) {
        Move moves[kMaxVectors];  // at most 8: classification caps permutations at 3 qubits
        const std::size_t n = op.perm_dst.size();
        for (std::size_t i = 0; i < n; ++i) {
          moves[i] = Move{op.perm_dst[i], op.perm_src[i], op.perm_phase[i],
                          op.perm_phase_is_one[i] == 0};
        }
        moves_lanes(s, op.sorted_qubits, std::span<const Move>(moves, n), lo, hi, runs);
        return;
      }
    }
    runs(lo, hi);
  }

  /// Controlled1Q and Generic1Q: op.matrix on the pattern offsets off[2].
  static void two_level_op(const SoaSpan& s, const CompiledOp& op, const index_t (&off)[2],
                           index_t lo, index_t hi) {
    const auto runs = [&](index_t a, index_t b) {
      two_level(s, op.sorted_qubits, op.matrix, off[0], off[1], a, b);
    };
    if constexpr (kW > 1) {
      if (op.sorted_qubits[0] < kLaneBits) {
        dense_lanes<2, false>(s, op.sorted_qubits, op.matrix, off, lo, hi, runs);
        return;
      }
    }
    runs(lo, hi);
  }

  static void controlled_1q(const SoaSpan& s, const CompiledOp& op, index_t lo, index_t hi) {
    const index_t off[2] = {op.control_mask, op.control_mask | op.target_mask};
    two_level_op(s, op, off, lo, hi);
  }

  static void generic_1q(const SoaSpan& s, const CompiledOp& op, index_t lo, index_t hi) {
    const index_t off[2] = {0, pow2(op.qubits[0])};
    two_level_op(s, op, off, lo, hi);
  }

  static void generic_2q(const SoaSpan& s, const CompiledOp& op, index_t lo, index_t hi) {
    const index_t off[4] = {0, pow2(op.qubits[0]), pow2(op.qubits[1]),
                            pow2(op.qubits[0]) | pow2(op.qubits[1])};
    const auto runs = [&](index_t a, index_t b) { generic_2q_runs(s, op, off, a, b); };
    if constexpr (kW > 1) {
      if (op.sorted_qubits[0] < kLaneBits) {
        dense_lanes<4, true>(s, op.sorted_qubits, op.matrix, off, lo, hi, runs);
        return;
      }
    }
    runs(lo, hi);
  }

  /// Dense k-qubit fallback (k >= 3): scalar gather/matvec/scatter over
  /// op.perm_dst's precomputed pattern offsets, mirroring
  /// StateVector::apply_matrix's k-qubit loop.
  static void generic_kq(const SoaSpan& s, const CompiledOp& op, index_t lo, index_t hi) {
    const int k = static_cast<int>(op.qubits.size());
    const index_t block = pow2(k);
    std::vector<double> inr(block), ini(block), outr(block), outi(block);
    for (index_t g = lo; g < hi; ++g) {
      const index_t base = insert_zero_bits(g, op.sorted_qubits);
      for (index_t p = 0; p < block; ++p) {
        inr[p] = s.re[base | op.perm_dst[p]];
        ini[p] = s.im[base | op.perm_dst[p]];
      }
      for (index_t r = 0; r < block; ++r) {
        double accr = 0.0;
        double acci = 0.0;
        for (index_t c = 0; c < block; ++c) {
          const double wr = op.matrix(r, c).real();
          const double wi = op.matrix(r, c).imag();
          accr += mul_re1(wr, wi, inr[c], ini[c]);
          acci += mul_im1(wr, wi, inr[c], ini[c]);
        }
        outr[r] = accr;
        outi[r] = acci;
      }
      for (index_t p = 0; p < block; ++p) {
        s.re[base | op.perm_dst[p]] = outr[p];
        s.im[base | op.perm_dst[p]] = outi[p];
      }
    }
  }

  [[nodiscard]] static KernelTable table() {
    KernelTable t;
    t.fns[static_cast<std::size_t>(KernelClass::Diagonal)] = &diagonal;
    t.fns[static_cast<std::size_t>(KernelClass::Permutation)] = &permutation;
    t.fns[static_cast<std::size_t>(KernelClass::Controlled1Q)] = &controlled_1q;
    t.fns[static_cast<std::size_t>(KernelClass::Generic1Q)] = &generic_1q;
    t.fns[static_cast<std::size_t>(KernelClass::Generic2Q)] = &generic_2q;
    t.fns[static_cast<std::size_t>(KernelClass::GenericKQ)] = &generic_kq;
    return t;
  }
};

}  // namespace qcut::sim::simd
