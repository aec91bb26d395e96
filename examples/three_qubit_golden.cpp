// Walkthrough of Section II-A of the paper: the three-qubit example.
//
// Builds rho = U23 U12 |000><000| U12^dag U23^dag, cuts the middle wire,
// prints the 16 reconstruction terms (M, r, s), and shows how a golden
// cutting point (here: U12 producing a Bell pair, observable diagonal)
// cancels the four Y terms, leaving 12.

#include <cstdio>
#include <iostream>

#include "backend/statevector_backend.hpp"
#include "circuit/render.hpp"
#include "common/table.hpp"
#include "cutting/pipeline.hpp"
#include "linalg/ops.hpp"
#include "sim/statevector.hpp"

int main() {
  using namespace qcut;
  using linalg::Pauli;

  // U12 = Bell-pair preparation (real amplitudes -> golden Y), U23 generic.
  circuit::Circuit circuit(3);
  circuit.h(0).cx(0, 1);              // U12 on (q0, q1); ops 0..1
  circuit.rx(1.2, 1).cx(1, 2).t(2);   // U23 on (q1, q2); ops 2..4
  const circuit::WirePoint cut{1, 1};

  std::cout << "Three-qubit example (paper Fig. 1):\n"
            << circuit::render_ascii(circuit, std::array{cut}) << '\n';

  const std::array<circuit::WirePoint, 1> cuts = {cut};
  const cutting::FragmentGraph graph = cutting::make_fragment_graph(circuit, cuts);

  // Gather exact fragment data and show each term's upstream weighted trace
  //   g(M) = sum_r r tr(Pi_b1 rho_f1(M^r))
  // for the observable Pi_0 = |0><0| on the upstream output qubit.
  backend::StatevectorBackend backend(7);
  cutting::ExecutionOptions exec;
  exec.exact = true;
  const cutting::ChainFragmentData data =
      cutting::execute_chain(graph, cutting::ChainNeglectSpec::none(graph), backend, exec);

  Table table({"basis M", "g(M) for b1=0", "g(M) for b1=1", "terms (r,s)", "kept?"});
  for (Pauli m : linalg::kAllPaulis) {
    const auto& probs = data.distribution(
        0, cutting::FragmentVariantKey{0, cutting::settings_index_for_basis(std::array{m})});
    // f1 qubit 1 is the cut wire, qubit 0 the output.
    double g0 = 0.0, g1 = 0.0;
    for (index_t outcome = 0; outcome < 4; ++outcome) {
      const double w = cutting::eigenvalue_weight(m, bit(outcome, 1));
      (bit(outcome, 0) == 0 ? g0 : g1) += w * probs[outcome];
    }
    const bool kept = m != Pauli::Y;
    table.add_row({linalg::pauli_name(m), format_double(g0, 6), format_double(g1, 6), "4",
                   kept ? "yes" : "no (golden)"});
  }
  std::cout << table << '\n';
  std::cout << "The Y row vanishes for every upstream outcome: the Bell pair's\n"
               "conditional states have equal magnitude on both Y eigenstates and\n"
               "cancel under the +/-1 eigenvalue weights (paper case (ii)).\n\n";

  // Reconstruct both ways and compare with the exact uncut distribution.
  sim::StateVector sv(3);
  sv.apply_circuit(circuit);
  const std::vector<double> truth = sv.probabilities();

  CutRequest standard(circuit);
  standard.with_cuts({cuts.begin(), cuts.end()}).with_exact();
  const CutResponse standard_report = run(standard, backend);

  cutting::NeglectSpec spec(1);
  spec.neglect(0, Pauli::Y);
  CutRequest golden(circuit);
  golden.with_cuts({cuts.begin(), cuts.end()}).with_exact().with_provided_spec(spec);
  const CutResponse golden_report = run(golden, backend);

  Table result({"outcome", "uncut (exact)", "standard (16 terms)", "golden (12 terms)"});
  for (index_t outcome = 0; outcome < 8; ++outcome) {
    result.add_row({bits_to_string(outcome, 3), format_double(truth[outcome], 6),
                    format_double(standard_report.reconstruction.raw_probabilities[outcome], 6),
                    format_double(golden_report.reconstruction.raw_probabilities[outcome], 6)});
  }
  std::cout << result;
  std::printf("\n(M, r, s) term count: standard 16, golden 12; circuit evaluations 9 -> 6.\n");
  return 0;
}
