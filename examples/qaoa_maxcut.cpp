// Domain workload: QAOA for MaxCut on a path graph, evaluated through a
// wire cut.
//
// The paper's conclusion points at variational circuits as natural clients
// of circuit cutting. A depth-1 QAOA ansatz on a path graph has exactly the
// chain structure cutting likes: cost layer RZZ along the path, mixer RX on
// every qubit. We cut the middle wire, estimate every edge term <Z_i Z_j>
// through the cut, and compare the resulting cost with the uncut value
// across a grid of (gamma, beta) parameters. Observable-specific golden
// detection is applied per edge term - whether a basis is negligible
// depends on the observable, so each edge gets its own spec.

#include <iostream>

#include "backend/statevector_backend.hpp"
#include "circuit/circuit.hpp"
#include "common/table.hpp"
#include "cutting/observables.hpp"
#include "cutting/pipeline.hpp"
#include "sim/statevector.hpp"

namespace {

using namespace qcut;

constexpr int kNumQubits = 6;  // path 0-1-2-3-4-5, cut on wire 3

/// Depth-1 QAOA ansatz for MaxCut on the path graph.
circuit::Circuit qaoa_path(double gamma, double beta) {
  circuit::Circuit c(kNumQubits);
  for (int q = 0; q < kNumQubits; ++q) c.h(q);
  for (int q = 0; q + 1 < kNumQubits; ++q) {
    c.append(circuit::GateKind::RZZ, {q, q + 1}, {gamma});
  }
  for (int q = 0; q < kNumQubits; ++q) c.rx(2.0 * beta, q);
  return c;
}

/// MaxCut cost: sum over edges of (1 - <Z_i Z_j>) / 2.
double cost_from_zz(const std::vector<double>& zz_terms) {
  double cost = 0.0;
  for (double zz : zz_terms) cost += 0.5 * (1.0 - zz);
  return cost;
}

}  // namespace

int main() {
  std::cout << "QAOA MaxCut on the 6-qubit path graph, evaluated through a cut\n"
            << "on wire 3 (fragments of 4 and 3 qubits).\n\n";

  Table table({"gamma", "beta", "cost (uncut exact)", "cost (via cut)", "|difference|"});

  backend::StatevectorBackend backend(55);
  for (double gamma : {0.4, 0.8}) {
    for (double beta : {0.3, 0.7}) {
      const circuit::Circuit ansatz = qaoa_path(gamma, beta);

      // The cut sits after the last upstream op on wire 3. Ops touching
      // wire 3: rzz(2,3), rzz(3,4), rx(3). We cut after rzz(3,4)... that
      // leaves rx(3) downstream, which is exactly what we want: the wire
      // continues into the mixer.
      std::size_t cut_after = 0;
      for (std::size_t i = 0; i < ansatz.num_ops(); ++i) {
        const auto& op = ansatz.op(i);
        if (op.kind == circuit::GateKind::RZZ && op.acts_on(3)) cut_after = i;
      }
      const std::array<circuit::WirePoint, 1> cuts = {circuit::WirePoint{3, cut_after}};
      const cutting::FragmentGraph graph = cutting::make_fragment_graph(ansatz, cuts);

      // Exact fragment data once; each edge observable reuses it.
      cutting::ExecutionOptions exec;
      exec.exact = true;
      const cutting::ChainFragmentData data = cutting::execute_chain(
          graph, cutting::ChainNeglectSpec::none(graph), backend, exec);

      sim::StateVector sv(kNumQubits);
      sv.apply_circuit(ansatz);

      std::vector<double> zz_cut, zz_exact;
      for (int q = 0; q + 1 < kNumQubits; ++q) {
        circuit::PauliString edge(kNumQubits);
        edge.set_label(q, linalg::Pauli::Z);
        edge.set_label(q + 1, linalg::Pauli::Z);
        const cutting::DiagonalObservable obs =
            cutting::DiagonalObservable::from_pauli(edge);

        // Observable-specific golden bases for this edge (if any).
        const cutting::ChainNeglectSpec spec{
            {cutting::detect_golden_for_observable(graph, obs).to_spec()}};
        zz_cut.push_back(
            cutting::reconstruct_diagonal_expectation(graph, data, spec, obs.diagonal()));
        zz_exact.push_back(sv.expectation_pauli(edge));
      }

      const double cut_cost = cost_from_zz(zz_cut);
      const double exact_cost = cost_from_zz(zz_exact);
      table.add_row({format_double(gamma, 2), format_double(beta, 2),
                     format_double(exact_cost, 6), format_double(cut_cost, 6),
                     format_double(std::abs(cut_cost - exact_cost), 10)});
    }
  }
  std::cout << table;
  std::cout << "\nEvery edge term - including the edge (2,3)-(3,4) region crossing the\n"
               "cut - reconstructs exactly; a variational optimizer could run its\n"
               "entire parameter loop on the two small fragments.\n";
  return 0;
}
