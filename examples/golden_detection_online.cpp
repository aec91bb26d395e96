// Online golden-point detection (the paper's Section-IV proposal).
//
// Runs the upstream fragment's three measurement settings, applies the
// statistical detector to the measured counts, and - when a basis passes
// the test - skips the downstream preparations that basis would have
// required. Prints the detector's evidence table.

#include <iostream>

#include "backend/statevector_backend.hpp"
#include "circuit/random.hpp"
#include "common/table.hpp"
#include "cutting/pipeline.hpp"
#include "sim/statevector.hpp"
#include "metrics/distance.hpp"

int main() {
  using namespace qcut;
  using linalg::Pauli;

  Rng rng(7);
  circuit::GoldenAnsatzOptions options;
  options.num_qubits = 5;
  const circuit::GoldenAnsatz ansatz = circuit::make_golden_ansatz(options, rng);
  const std::array<circuit::WirePoint, 1> cuts = {ansatz.cut};
  const cutting::FragmentGraph graph = cutting::make_fragment_graph(ansatz.circuit, cuts);

  backend::StatevectorBackend backend(99);

  for (std::size_t shots : {200ull, 1000ull, 5000ull}) {
    cutting::ExecutionOptions exec;
    exec.shots_per_variant = shots;
    exec.seed_stream_base = shots;  // fresh data per row
    const cutting::ChainFragmentData data = cutting::execute_chain(
        graph, cutting::ChainNeglectSpec::none(graph), backend, exec);

    std::vector<std::vector<double>> upstream;
    for (std::uint32_t s = 0; s < 3; ++s) {
      upstream.push_back(data.distribution(0, cutting::FragmentVariantKey{0, s}));
    }
    const cutting::GoldenDetectionReport report =
        cutting::detect_golden_from_counts(graph, upstream, shots);

    Table table({"basis", "max |g_hat|", "declared golden?"});
    for (Pauli p : {Pauli::X, Pauli::Y, Pauli::Z}) {
      table.add_row({linalg::pauli_name(p),
                     format_double(report.violation[0][static_cast<std::size_t>(p)], 4),
                     report.golden[0][static_cast<std::size_t>(p)] ? "yes" : "no"});
    }
    std::cout << "shots per setting = " << shots << " (true golden basis: "
              << linalg::pauli_name(ansatz.golden_basis) << ")\n"
              << table << '\n';
  }

  // Full online pipeline: detect from the upstream data, then execute only
  // the surviving downstream preparations.
  CutRequest request(ansatz.circuit);
  request.with_cuts({cuts.begin(), cuts.end()})
      .with_golden(cutting::GoldenMode::DetectOnline)
      .with_shots(5000);
  const CutResponse report = run(request, backend);

  sim::StateVector sv(5);
  sv.apply_circuit(ansatz.circuit);
  std::cout << "online pipeline: " << report.data.total_jobs
            << " circuit evaluations (9 without detection), d_w to exact = "
            << format_double(
                   metrics::weighted_distance(report.probabilities(), sv.probabilities()), 6)
            << "\n";
  return 0;
}
