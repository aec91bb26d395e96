#pragma once
// Multi-qubit Pauli strings.
//
// A PauliString assigns one of {I, X, Y, Z} to each qubit. Used for
// observable decompositions and for the reconstruction basis B^K (Eq. 10).

#include <string>
#include <vector>

#include "linalg/matrix.hpp"
#include "linalg/pauli_matrices.hpp"

namespace qcut::circuit {

using linalg::Pauli;

class PauliString {
 public:
  /// All-identity string on n qubits.
  explicit PauliString(int num_qubits);

  /// From explicit labels; labels[q] is the Pauli on qubit q.
  explicit PauliString(std::vector<Pauli> labels);

  /// Parses "XIZ..." where the FIRST character is the highest qubit
  /// (the conventional |q_{n-1} ... q_0> reading order).
  [[nodiscard]] static PauliString parse(const std::string& text);

  [[nodiscard]] int num_qubits() const noexcept { return static_cast<int>(labels_.size()); }
  [[nodiscard]] Pauli label(int qubit) const;
  void set_label(int qubit, Pauli p);

  /// Number of non-identity labels.
  [[nodiscard]] int weight() const noexcept;

  /// Qubits carrying a non-identity label, ascending.
  [[nodiscard]] std::vector<int> support() const;

  /// Number of Y labels. It determines behaviour on real states: a string
  /// with an odd Y count is imaginary and antisymmetric, so its expectation
  /// on any real state is zero.
  [[nodiscard]] int y_count() const noexcept;

  /// Full 2^n x 2^n matrix: kron(P_{n-1}, ..., P_1, P_0) so that qubit 0
  /// is the least significant index bit.
  [[nodiscard]] linalg::CMat to_matrix() const;

  /// "XIZ" with the highest qubit first (inverse of parse()).
  [[nodiscard]] std::string to_string() const;

  friend bool operator==(const PauliString&, const PauliString&) = default;

 private:
  std::vector<Pauli> labels_;  // labels_[q] = Pauli on qubit q
};

}  // namespace qcut::circuit
