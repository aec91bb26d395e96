#pragma once
// Random circuit generation.
//
// random_circuit() mirrors Qiskit's random_circuit(): layered random 1- and
// 2-qubit gates with random parameters. Three gate sets are provided:
//
//  * General        - unrestricted (used for the downstream fragment U2);
//  * RealAmplitude  - gates with real matrices. A circuit of real gates keeps
//                     the state real, which makes Pauli-Y a *golden* basis at
//                     every cut for diagonal observables (a real state's
//                     conditional cut states are real symmetric, and Y is
//                     imaginary antisymmetric; cutting_golden_invariant_test
//                     sweeps the claim over random circuits and cuts);
//  * IXClass        - {RX, X, Z, CZ}: preserves the class of states whose
//                     amplitudes satisfy amp(b) in i^{popcount(b)} * R, which
//                     makes Pauli-X golden instead.
//
// make_golden_ansatz() builds the paper's Fig. 2 experiment circuit: a
// restricted upstream block (guaranteeing the golden basis at the cut), a
// collection of randomly rotated single-qubit gates, and an unrestricted
// downstream block.

#include "circuit/circuit.hpp"
#include "circuit/dag.hpp"
#include "common/rng.hpp"
#include "linalg/pauli_matrices.hpp"

namespace qcut::circuit {

enum class GateSet { General, RealAmplitude, IXClass };

struct RandomCircuitOptions {
  int num_qubits = 3;
  int depth = 3;                    // number of layers
  GateSet gate_set = GateSet::General;
  double two_qubit_fraction = 0.5;  // chance of emitting a 2q gate per pairing opportunity
};

/// Layered random circuit over all `num_qubits` qubits.
[[nodiscard]] Circuit random_circuit(const RandomCircuitOptions& options, Rng& rng);

/// Random circuit restricted to the listed qubits (other wires untouched).
[[nodiscard]] Circuit random_circuit_on(const RandomCircuitOptions& options,
                                        std::span<const int> qubits, int total_qubits, Rng& rng);

/// RX(theta) on each listed qubit, theta uniform in [0, 6.28] (the paper's
/// interval).
[[nodiscard]] Circuit rx_collection(int total_qubits, std::span<const int> qubits, Rng& rng);

/// RY(theta) on each listed qubit (the real-gate analogue used upstream).
[[nodiscard]] Circuit ry_collection(int total_qubits, std::span<const int> qubits, Rng& rng);

struct GoldenAnsatzOptions {
  int num_qubits = 5;
  int cut_qubit = -1;          // -1: middle qubit, floor(n/2)
  int upstream_depth = 2;      // layers in U1
  int downstream_depth = 2;    // layers in U2
  linalg::Pauli golden_basis = linalg::Pauli::Y;  // Y (real upstream) or X (iX upstream)
};

struct GoldenAnsatz {
  Circuit circuit;
  WirePoint cut;                 // the designed golden cutting point
  linalg::Pauli golden_basis;    // basis guaranteed negligible at the cut
  std::vector<int> upstream_qubits;
  std::vector<int> downstream_qubits;
};

/// Builds a circuit with a designed golden cutting point (paper Fig. 2).
///
/// Structure: [entangling backbone + U1 + rotation collection] on qubits
/// {0..cut}, then [rotation collection + U2 + backbone] on {cut..n-1}.
/// The upstream block uses RealAmplitude gates for golden_basis == Y and
/// IXClass gates for golden_basis == X; the downstream block is General.
[[nodiscard]] GoldenAnsatz make_golden_ansatz(const GoldenAnsatzOptions& options, Rng& rng);

struct MultiCutAnsatzOptions {
  int num_cuts = 2;
  int block_width = 2;        // qubits per upstream block (including its cut wire)
  int upstream_depth = 1;     // random real layers per block
  int downstream_depth = 1;   // random general layers downstream
};

struct MultiCutAnsatz {
  Circuit circuit{1};
  std::vector<WirePoint> cuts;   // one per block, in block order
};

/// K-cut golden circuit: K *disjoint* real-amplitude upstream blocks, each
/// feeding one cut wire into a joint downstream block. Disjointness makes
/// the upstream state factorize per cut, so per-cut golden-Y holds exactly
/// at every cut (NeglectSpec.neglect(k, Y) for all k is valid). An
/// *entangled* real upstream would only admit string-level odd-Y neglect:
/// there a string such as (Y, Y) is real and symmetric and need not vanish
/// (cutting/golden.hpp, neglect_odd_y_strings).
[[nodiscard]] MultiCutAnsatz make_multi_cut_golden_ansatz(const MultiCutAnsatzOptions& options,
                                                          Rng& rng);

}  // namespace qcut::circuit
