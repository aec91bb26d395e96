// Interop and circuit hygiene: peephole-optimize the fragment variants and
// export them as OpenQASM 2.0 for execution on external stacks (Qiskit,
// real IBM devices - the paper's actual experimental platform).

#include <iostream>

#include "circuit/optimize.hpp"
#include "circuit/qasm.hpp"
#include "circuit/random.hpp"
#include "circuit/render.hpp"
#include "cutting/variants.hpp"

int main() {
  using namespace qcut;

  Rng rng(13);
  circuit::GoldenAnsatzOptions options;
  options.num_qubits = 5;
  const circuit::GoldenAnsatz ansatz = circuit::make_golden_ansatz(options, rng);
  const std::array<circuit::WirePoint, 1> cuts = {ansatz.cut};
  const cutting::FragmentGraph graph = cutting::make_fragment_graph(ansatz.circuit, cuts);

  // Golden spec: only the 6 surviving variants get exported.
  cutting::NeglectSpec spec(1);
  spec.neglect(0, ansatz.golden_basis);

  std::cout << "Upstream fragment:\n"
            << circuit::render_ascii(graph.fragments[0].circuit) << '\n';

  for (std::uint32_t setting : cutting::required_setting_indices(spec)) {
    const cutting::FragmentVariant variant =
        cutting::make_fragment_variant(graph, 0, cutting::FragmentVariantKey{0, setting});
    circuit::OptimizeStats stats;
    const circuit::Circuit optimized = circuit::optimize(variant.circuit, &stats);
    std::cout << "--- upstream setting "
              << cutting::setting_name(variant.settings.front()) << " ("
              << variant.circuit.num_ops() << " ops -> " << optimized.num_ops()
              << " after peephole) ---\n"
              << circuit::to_qasm(optimized) << '\n';
  }

  std::cout << "--- one downstream preparation (|+>) ---\n";
  for (std::uint32_t prep : cutting::required_prep_indices(spec)) {
    const cutting::FragmentVariant variant =
        cutting::make_fragment_variant(graph, 1, cutting::FragmentVariantKey{prep, 0});
    if (variant.preps.front() != linalg::PrepState::XPlus) continue;
    std::cout << circuit::to_qasm(circuit::optimize(variant.circuit)) << '\n';
  }
  std::cout << "These QASM programs run unmodified on Qiskit/IBM backends; the\n"
               "reconstruction then consumes their counts via ingest_counts.\n";
  return 0;
}
