// General (non-diagonal) Pauli observables through the cut: basis rotations
// reduce <P> to a Z-form diagonal on a rotated circuit, whose cut points
// remain valid. Plus bring-your-own-counts ingestion (export variants,
// execute elsewhere, reconstruct here).

#include <gtest/gtest.h>

#include "backend/statevector_backend.hpp"
#include "circuit/random.hpp"
#include "common/error.hpp"
#include "cutting/observables.hpp"
#include "cutting/pipeline.hpp"
#include "sim/statevector.hpp"

namespace qcut::cutting {
namespace {

TEST(PauliEstimation, RotatedCircuitReproducesExpectation) {
  Rng rng(1);
  circuit::RandomCircuitOptions options;
  options.num_qubits = 4;
  options.depth = 3;
  const circuit::Circuit c = circuit::random_circuit(options, rng);

  sim::StateVector sv(4);
  sv.apply_circuit(c);

  for (const std::string label : {"XYZI", "YYYY", "XIXI", "IZYX", "IIII"}) {
    const circuit::PauliString pauli = circuit::PauliString::parse(label);
    const PauliEstimationPlan plan = prepare_pauli_estimation(c, pauli);

    sim::StateVector rotated(4);
    rotated.apply_circuit(plan.rotated_circuit);
    const double via_plan = plan.observable.expectation(rotated.probabilities());
    EXPECT_NEAR(via_plan, sv.expectation_pauli(pauli), 1e-10) << label;
  }
}

TEST(PauliEstimation, WidthMismatchRejected) {
  circuit::Circuit c(3);
  c.h(0);
  EXPECT_THROW((void)prepare_pauli_estimation(c, circuit::PauliString::parse("XX")), Error);
}

TEST(PauliEstimation, ThroughTheCutMatchesStatevector) {
  Rng rng(2);
  circuit::GoldenAnsatzOptions options;
  options.num_qubits = 5;
  const circuit::GoldenAnsatz ansatz = circuit::make_golden_ansatz(options, rng);

  sim::StateVector sv(5);
  sv.apply_circuit(ansatz.circuit);

  for (const std::string label : {"XIIII", "IYIIZ", "XXYYZ"}) {
    const circuit::PauliString pauli = circuit::PauliString::parse(label);
    const PauliEstimationPlan plan = prepare_pauli_estimation(ansatz.circuit, pauli);

    // The original cut point stays valid on the rotated circuit.
    const std::array<circuit::WirePoint, 1> cuts = {ansatz.cut};
    const FragmentGraph graph = make_fragment_graph(plan.rotated_circuit, cuts);
    const ChainNeglectSpec spec = ChainNeglectSpec::none(graph);

    backend::StatevectorBackend backend(3);
    ExecutionOptions exec;
    exec.exact = true;
    const ChainFragmentData data = execute_chain(graph, spec, backend, exec);
    const double estimate =
        reconstruct_diagonal_expectation(graph, data, spec, plan.observable.diagonal());
    EXPECT_NEAR(estimate, sv.expectation_pauli(pauli), 1e-9) << label;
  }
}

TEST(PauliEstimation, GoldenYMayBreakForYObservables) {
  // The golden property is observable-dependent: rotating a Y measurement
  // into the computational basis inserts Sdg/H gates, which can make the
  // upstream block complex if they land upstream. The library must still be
  // correct: run WITHOUT golden spec and compare.
  Rng rng(3);
  circuit::GoldenAnsatzOptions options;
  options.num_qubits = 5;
  const circuit::GoldenAnsatz ansatz = circuit::make_golden_ansatz(options, rng);

  circuit::PauliString pauli(5);
  pauli.set_label(0, linalg::Pauli::Y);  // Y on an upstream output qubit
  const PauliEstimationPlan plan = prepare_pauli_estimation(ansatz.circuit, pauli);
  const std::array<circuit::WirePoint, 1> cuts = {ansatz.cut};
  const FragmentGraph graph = make_fragment_graph(plan.rotated_circuit, cuts);

  // Exact detection on the ROTATED circuit decides whether Y is still
  // golden; whatever it says, the reconstruction must match.
  const ChainNeglectSpec spec{{detect_golden_exact(graph, 1e-9).to_spec()}};

  backend::StatevectorBackend backend(4);
  ExecutionOptions exec;
  exec.exact = true;
  const ChainFragmentData data = execute_chain(graph, spec, backend, exec);
  sim::StateVector sv(5);
  sv.apply_circuit(ansatz.circuit);
  EXPECT_NEAR(reconstruct_diagonal_expectation(graph, data, spec, plan.observable.diagonal()),
              sv.expectation_pauli(pauli), 1e-9);
}

TEST(CountsIngestion, ManualPipelineMatchesBuiltIn) {
  Rng rng(5);
  circuit::GoldenAnsatzOptions options;
  options.num_qubits = 5;
  const circuit::GoldenAnsatz ansatz = circuit::make_golden_ansatz(options, rng);
  const std::array<circuit::WirePoint, 1> cuts = {ansatz.cut};
  const FragmentGraph graph = make_fragment_graph(ansatz.circuit, cuts);

  NeglectSpec golden(1);
  golden.neglect(0, ansatz.golden_basis);
  const ChainNeglectSpec spec{{golden}};

  // "External" execution: run each exported variant by hand.
  backend::StatevectorBackend backend(6);
  const std::size_t shots = 5000;
  ChainFragmentData manual = make_chain_data(graph);
  manual.shots_per_variant = shots;
  for (const FragmentVariantKey key : required_fragment_variants(graph, 0, spec)) {
    const FragmentVariant variant = make_fragment_variant(graph, 0, key);
    ingest_counts(manual, 0, key, backend.run(variant.circuit, shots, key.setting_index));
  }
  for (const FragmentVariantKey key : required_fragment_variants(graph, 1, spec)) {
    const FragmentVariant variant = make_fragment_variant(graph, 1, key);
    ingest_counts(manual, 1, key, backend.run(variant.circuit, shots, 1000 + key.prep_index));
  }
  EXPECT_EQ(manual.total_jobs, 6u);
  EXPECT_EQ(manual.total_shots, 6 * shots);

  // Built-in execution with the same seed streams.
  backend::StatevectorBackend backend2(6);
  ExecutionOptions exec;
  exec.shots_per_variant = shots;
  const ChainFragmentData builtin = execute_chain(graph, spec, backend2, exec);

  // Reconstructions agree in distribution (not bit-identical: stream ids
  // differ) - compare against the exact answer instead.
  sim::StateVector sv(5);
  sv.apply_circuit(ansatz.circuit);
  const std::vector<double> truth = sv.probabilities();

  const auto manual_recon = reconstruct_distribution(graph, manual, spec);
  const auto builtin_recon = reconstruct_distribution(graph, builtin, spec);
  for (index_t x = 0; x < 32; ++x) {
    EXPECT_NEAR(manual_recon.raw_probabilities[x], truth[x], 0.05);
    EXPECT_NEAR(builtin_recon.raw_probabilities[x], truth[x], 0.05);
  }
}

TEST(CountsIngestion, Validation) {
  Rng rng(7);
  circuit::GoldenAnsatzOptions options;
  options.num_qubits = 5;
  const circuit::GoldenAnsatz ansatz = circuit::make_golden_ansatz(options, rng);
  const std::array<circuit::WirePoint, 1> cuts = {ansatz.cut};
  const FragmentGraph graph = make_fragment_graph(ansatz.circuit, cuts);
  const int width = graph.fragments[0].width();

  ChainFragmentData data = make_chain_data(graph);
  data.shots_per_variant = 100;
  backend::Counts wrong_width(2);
  wrong_width.add(0, 100);
  EXPECT_THROW(ingest_counts(data, 0, {}, wrong_width), Error);

  backend::Counts empty(width);
  EXPECT_THROW(ingest_counts(data, 0, {}, empty), Error);

  backend::Counts wrong_shots(width);
  wrong_shots.add(0, 99);
  EXPECT_THROW(ingest_counts(data, 0, {}, wrong_shots), Error);

  backend::Counts good(width);
  good.add(0, 100);
  EXPECT_NO_THROW(ingest_counts(data, 0, {}, good));
  ChainFragmentData unset = make_chain_data(graph);  // shots_per_variant still 0
  EXPECT_THROW(ingest_counts(unset, 0, {}, good), Error);
}

}  // namespace
}  // namespace qcut::cutting
