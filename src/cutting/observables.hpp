#pragma once
// Diagonal observables and observable-specific golden cutting points.
//
// The paper's Definition 1 is *observable-dependent*: a basis element is
// negligible when sum_r r tr(O_f1 rho_f1(M^r)) = 0 for the observable being
// estimated. The distribution-level detectors in golden.hpp use every
// bitstring projector (the strongest requirement); a specific diagonal
// observable is weaker, so it can admit golden points the distribution-level
// test rejects. detect_golden_for_observable implements that refinement.

#include <optional>
#include <span>

#include "circuit/pauli_string.hpp"
#include "common/bits.hpp"
#include "cutting/golden.hpp"
#include "cutting/reconstructor.hpp"

namespace qcut::cutting {

/// A diagonal observable over n-qubit computational basis states:
/// O = sum_x value(x) |x><x|.
class DiagonalObservable {
 public:
  /// From explicit diagonal values (length 2^n).
  explicit DiagonalObservable(std::vector<double> diagonal);

  /// The projector |bitstring><bitstring|.
  [[nodiscard]] static DiagonalObservable projector(int num_qubits, index_t bitstring);

  /// A Z/I Pauli string (throws if the string has X or Y components):
  /// value(x) = (-1)^{parity of x on the Z support}.
  [[nodiscard]] static DiagonalObservable from_pauli(const circuit::PauliString& pauli);

  /// Parity of all qubits: value(x) = (-1)^{popcount(x)}.
  [[nodiscard]] static DiagonalObservable parity(int num_qubits);

  [[nodiscard]] int num_qubits() const noexcept { return num_qubits_; }
  [[nodiscard]] const std::vector<double>& diagonal() const noexcept { return diagonal_; }
  [[nodiscard]] double value(index_t basis_state) const;

  /// <O> under a distribution.
  [[nodiscard]] double expectation(std::span<const double> probabilities) const;

  /// a*this + b*other (same width).
  [[nodiscard]] DiagonalObservable linear_combination(double a, const DiagonalObservable& other,
                                                      double b) const;

  /// Restriction to a subset of qubits when the observable factorizes as
  /// O = O_subset (x) I_rest; returns false if it does not factorize.
  [[nodiscard]] bool try_restrict(std::span<const int> qubits,
                                  std::vector<double>& restricted) const;

 private:
  int num_qubits_;
  std::vector<double> diagonal_;
};

/// Observable-specific golden detection (exact, from the upstream
/// fragment's statevector).
///
/// `graph` must have two fragments (make_fragment_graph). `observable` must
/// be diagonal over the ORIGINAL circuit's qubits and must factorize across
/// the two fragments (every Z/I Pauli string does). The condition tested per
/// (cut, Pauli) is Definition 1 with O_f1 = the observable's factor on the
/// upstream output qubits:
///   |sum_r r tr(O_f1 rho_f1(M^r))| <= tol for every context of other cuts.
///
/// This is weaker than the distribution-level test, so the returned spec
/// neglects at least as many elements as detect_golden_exact's.
[[nodiscard]] GoldenDetectionReport detect_golden_for_observable(
    const FragmentGraph& graph, const DiagonalObservable& observable, double tol = 1e-9);

/// Non-throwing variant used by the observable-aware planner: returns
/// nullopt when the observable does not factorize across the two fragments
/// (instead of throwing), so candidate cuts can fall back to the
/// distribution-level detector.
[[nodiscard]] std::optional<GoldenDetectionReport> try_detect_golden_for_observable(
    const FragmentGraph& graph, const DiagonalObservable& observable, double tol = 1e-9);

/// A general (non-diagonal) Pauli observable reduced to the diagonal case:
/// the circuit is extended with the standard basis rotations (X -> H,
/// Y -> Sdg H) so that measuring the rotated circuit in the computational
/// basis estimates <pauli> of the original circuit via the Z-form
/// observable. Appended rotations act after every existing operation, so
/// wire-cut points of the original circuit remain valid.
struct PauliEstimationPlan {
  Circuit rotated_circuit{1};
  DiagonalObservable observable{std::vector<double>{1.0, 1.0}};  // Z-form
};
[[nodiscard]] PauliEstimationPlan prepare_pauli_estimation(const Circuit& circuit,
                                                           const circuit::PauliString& pauli);

}  // namespace qcut::cutting
