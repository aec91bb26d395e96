// Estimating observable expectations through a cut with the unified
// CutRequest API: Pauli targets with bootstrap error bars over a provided
// golden spec, then observable-specific golden detection with AutoPlan -
// Definition 1 is observable-dependent, so a weaker observable can admit
// more golden bases (and hence fewer circuit variants) than the full
// distribution does.

#include <iostream>

#include "backend/statevector_backend.hpp"
#include "circuit/random.hpp"
#include "common/table.hpp"
#include "cutting/pipeline.hpp"
#include "sim/statevector.hpp"

int main() {
  using namespace qcut;
  using linalg::Pauli;

  Rng rng(31);
  circuit::GoldenAnsatzOptions options;
  options.num_qubits = 5;
  const circuit::GoldenAnsatz ansatz = circuit::make_golden_ansatz(options, rng);

  sim::StateVector sv(5);
  sv.apply_circuit(ansatz.circuit);

  cutting::NeglectSpec spec(1);
  spec.neglect(0, ansatz.golden_basis);

  // One CutRequest per observable: same circuit, same cut, same seeds -
  // when served through a CutService the fragment variants are shared; here
  // the synchronous facade keeps each run independent.
  cutting::BootstrapOptions boot;
  boot.replicas = 200;

  backend::StatevectorBackend backend(17);
  Table table({"observable", "exact <O>", "estimate", "bootstrap SE", "95% CI"});
  for (const std::string label : {"ZIIII", "IZIZI", "ZZZZZ", "IIZII"}) {
    CutRequest request(ansatz.circuit);
    request.with_pauli(label)
        .with_cut(ansatz.cut)
        .with_shots(20000)
        .with_provided_spec(spec)
        .with_uncertainty(boot);
    const CutResponse response = run(request, backend);

    const cutting::ExpectationUncertainty& u = *response.uncertainty;
    table.add_row({label,
                   format_double(sv.expectation_pauli(circuit::PauliString::parse(label)), 5),
                   format_double(u.estimate, 5), format_double(u.standard_error, 5),
                   "[" + format_double(u.ci_lower, 4) + ", " + format_double(u.ci_upper, 4) +
                       "]"});
  }
  std::cout << table << '\n';

  // Observable-specific golden detection with AutoPlan: for <Z_0> alone on
  // a circuit whose output qubit is unentangled with the cut, EVERY basis
  // is golden - the planner needs only the identity term: 1 upstream
  // setting, 2 preparations.
  circuit::Circuit simple(3);
  simple.h(0);
  simple.t(1).h(1).t(1).rx(0.7, 1);
  const std::size_t cut_after = simple.num_ops() - 1;
  simple.cx(1, 2);
  const std::array<circuit::WirePoint, 1> simple_cuts = {circuit::WirePoint{1, cut_after}};
  const cutting::FragmentGraph simple_graph = cutting::make_fragment_graph(simple, simple_cuts);

  circuit::PauliString z0(3);
  z0.set_label(0, Pauli::Z);
  const auto report = cutting::detect_golden_for_observable(
      simple_graph, cutting::DiagonalObservable::from_pauli(z0));
  std::cout << "Observable-specific detection for <Z_0> on the simple circuit:\n";
  for (Pauli p : {Pauli::X, Pauli::Y, Pauli::Z}) {
    std::cout << "  basis " << linalg::pauli_name(p) << ": "
              << (report.golden[0][static_cast<std::size_t>(p)] ? "golden" : "not golden")
              << " (violation " << format_double(report.violation[0][static_cast<std::size_t>(p)], 6)
              << ")\n";
  }

  backend::StatevectorBackend simple_backend(9);
  CutRequest auto_planned(simple);
  auto_planned.with_pauli(z0)
      .with_auto_plan()
      .with_golden(cutting::GoldenMode::DetectExact)
      .with_exact();
  const CutResponse planned = run(auto_planned, simple_backend);

  sim::StateVector simple_sv(3);
  simple_sv.apply_circuit(simple);
  std::cout << "\nAutoPlan + observable-specific detection executed "
            << planned.data.total_jobs << " circuit variants (standard cutting: 9) and got\n"
            << "<Z_0> = " << format_double(*planned.expectation, 6)
            << " (exact: " << format_double(simple_sv.expectation_pauli(z0), 6) << ")\n";
  return 0;
}
