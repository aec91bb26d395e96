#pragma once
// SoA SIMD kernel tables with runtime ISA dispatch.
//
// Each kernel class of sim/engine.hpp has a split re/im implementation
// operating on SoAState buffers. The kernels are compiled from one
// width-parameterized template (simd_kernels_impl.hpp) into three tiers:
//
//   Scalar — width-1 instantiation, plain double arithmetic, always built;
//   Avx2   — __m256d (4 doubles), built when the compiler accepts -mavx2
//            (CMake QCUT_SIMD);
//   Avx512 — __m512d (8 doubles), built when -mavx512f is accepted.
//
// Policy contract. A tier is the template instantiated with a vector-ops
// policy: a register type `reg` of `width` doubles with load, store, set1,
// zero, add, sub and mul, each one IEEE operation per lane. The AVX policies
// add the two bit moves of the in-register path for gates on qubits below
// log2(width): a fixed lane permute (lane_order + permute; AVX-512
// permutex2var, AVX2 permutevar8x32) and a lane selection (lane_mask +
// blend; an AVX-512 mask register, an AVX2 blendv). Neither does
// arithmetic. No policy has a fused op: an FMA rounds once where the
// Scalar tier rounds twice.
//
// The AVX tiers live in their own translation units with per-source ISA
// flags, so the rest of the library never emits an instruction the host
// might lack; best_isa() probes the CPU once at runtime
// (__builtin_cpu_supports) and picks the widest table both the build and
// the machine support.
//
// Rounding contract: every tier is bit-for-bit equal to the Scalar tier,
// and every kernel rounds as the std::complex<double> arithmetic of
// StateVector::apply_matrix does (the specialized classes skip only exact
// zeros and ones, see engine.hpp). Each lane performs the same IEEE
// multiplies, adds and subtracts, grouped the same way, and nothing is
// contracted into an FMA (see simd_kernels_impl.hpp). Dispatch therefore
// never affects a result: EngineOptions::simd is bit-neutral and no ISA
// appears in Backend::identity().

#include "sim/engine.hpp"

namespace qcut::sim::simd {

/// A split-amplitude view the kernels write through. For cache-blocked
/// application the pointers address one 2^B-amplitude block and `dim` is
/// the block size.
struct SoaSpan {
  double* re = nullptr;
  double* im = nullptr;
  index_t dim = 0;
};

/// Applies `op` to the amplitude groups [group_lo, group_hi) of `span`:
/// group_count(op, dim) enumerates the independent index groups the op
/// touches.
using KernelFn = void (*)(const SoaSpan& span, const CompiledOp& op, index_t group_lo,
                          index_t group_hi);

/// One kernel per KernelClass, indexed by static_cast<size_t>(cls).
struct KernelTable {
  KernelFn fns[6] = {};
};

/// Independent amplitude groups `op` touches on a dim-sized state — the
/// iteration count kernels and the chunking layer agree on.
[[nodiscard]] index_t group_count(const CompiledOp& op, index_t dim) noexcept;

/// True when this build compiled at least the AVX2 tier.
[[nodiscard]] bool compiled_with_simd() noexcept;

/// Widest ISA both the build and this CPU support; Scalar when the SIMD
/// tiers are compiled out or the CPU lacks AVX2.
[[nodiscard]] IsaLevel best_isa() noexcept;

/// The kernel table for an ISA level. Requesting a level the build or CPU
/// does not support falls back to Scalar.
[[nodiscard]] const KernelTable& kernel_table(IsaLevel isa) noexcept;

namespace detail {
#if defined(QCUT_SIMD_AVX2)
[[nodiscard]] const KernelTable& avx2_table() noexcept;
#endif
#if defined(QCUT_SIMD_AVX512)
[[nodiscard]] const KernelTable& avx512_table() noexcept;
#endif
}  // namespace detail

}  // namespace qcut::sim::simd
