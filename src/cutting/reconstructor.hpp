#pragma once
// Classical reconstruction of the uncut circuit's outcome distribution from
// fragment data (Eq. 13/14 of the paper, specialized to the bitstring
// distribution: O = projector onto each output bitstring).
//
// One global term is a choice of one active basis string per boundary; its
// contribution is contracted boundary by boundary along the chain: each
// fragment folds its incoming boundary's eigenstate slots (weighted by the
// incoming string's eigenvalues) and its outgoing boundary's measured
// tomography bits (weighted by the outgoing string's) into a tensor over
// its final bits, and the term is the scattered product of those per-
// fragment tensors times prod_b 1/2^{K_b}. For the paper's two-fragment cut
// with basis string M this is
//   u_M[b1] = sum_{a in {0,1}^K} (prod_k w(M_k, a_k)) * p_f1(b1, a | settings(M))
//   v_M[b2] = sum_{a in {0,1}^K} (prod_k w(M_k, a_k)) * p_f2(b2 | preps(M, a))
// accumulated as (1/2^K) * u_M[b1] * v_M[b2] into the joint distribution.
// Terms containing a neglected string at any boundary (golden cutting
// points) are skipped, so the paper's 4^K -> 4^Kr 3^Kg runtime reduction
// multiplies across boundaries.

#include <cstdint>
#include <vector>

#include "cutting/fragment_executor.hpp"

namespace qcut::cutting {

struct ReconstructionOptions {
  /// Pool used to parallelize over basis strings (only when a contraction
  /// reaches kMinParallelReconstructionWork); nullptr selects the global
  /// pool.
  parallel::ThreadPool* pool = nullptr;
};

struct ReconstructionResult {
  /// Raw reconstructed quasi-distribution over 2^n original outcomes.
  /// Finite-shot noise can leave small negative entries.
  std::vector<double> raw_probabilities;

  /// Number of basis strings contracted.
  std::uint64_t terms = 0;

  /// Post-processing wall time.
  double seconds = 0.0;

  /// Clipped-and-renormalized probability distribution.
  [[nodiscard]] std::vector<double> probabilities() const;
};

/// Reconstruction fans out over the pool only when its work estimate
/// reaches this many multiply-adds: outcomes x active terms, plus one pass
/// over each fragment distribution per fragment tensor and incoming
/// eigenstate slot. Below it, tensors and terms run inline on the calling
/// thread. Measured on 3-fragment brick chains (1-3 cut wires per boundary,
/// 6-16 qubits, exact data; always-inline vs always-pooled builds on a
/// 4-vCPU AVX-512 KVM guest, medians of 5 alternating runs), the pool's
/// wall time crosses the inline path's between 2^17.3 (1.15x slower) and
/// 2^17.6 (0.76x); at 2^18.3-2^22.3 the pool was 1.2-3.2x faster for
/// 1.0-1.7x the CPU, and below 2^17.3 it cost 2.1-3.2x the CPU for no gain.
/// 2^18 keeps the marginal region, where the pool saves under a quarter of
/// the wall time for two thirds more CPU, inline. The term chunking depends
/// on the term count alone, so results are bit-for-bit equal on both sides
/// of the threshold.
inline constexpr std::uint64_t kMinParallelReconstructionWork = std::uint64_t{1} << 18;

/// Contracts fragment data into the distribution of the uncut circuit.
/// Only terms active under `spec` are evaluated; the data must contain every
/// variant those terms need.
[[nodiscard]] ReconstructionResult reconstruct_distribution(
    const FragmentGraph& graph, const ChainFragmentData& data, const ChainNeglectSpec& spec,
    const ReconstructionOptions& options = {});

/// Reconstructs the probability of a single outcome bitstring without
/// forming the full distribution.
[[nodiscard]] double reconstruct_probability_of(const FragmentGraph& graph,
                                                const ChainFragmentData& data,
                                                const ChainNeglectSpec& spec, index_t outcome);

/// Expectation of a diagonal observable diag over the reconstructed
/// distribution: sum_x diag[x] * p[x] (raw, not clipped).
[[nodiscard]] double reconstruct_diagonal_expectation(const FragmentGraph& graph,
                                                      const ChainFragmentData& data,
                                                      const ChainNeglectSpec& spec,
                                                      std::span<const double> diagonal,
                                                      const ReconstructionOptions& options = {});

}  // namespace qcut::cutting
