// The library's multi-cut golden ansatz: every cut is valid, per-cut
// golden-Y holds exactly at each, and golden-aware reconstruction stays
// exact for K = 1..3.

#include <gtest/gtest.h>
#include <span>

#include "backend/statevector_backend.hpp"
#include "circuit/random.hpp"
#include "cutting/pipeline.hpp"
#include "sim/statevector.hpp"
#include "support/run_cut.hpp"

namespace qcut::cutting {
namespace {

struct Param {
  int num_cuts;
  int block_width;
  std::uint64_t seed;

  friend void PrintTo(const Param& p, std::ostream* os) {
    *os << "K" << p.num_cuts << "_w" << p.block_width << "_s" << p.seed;
  }
};

class MultiCutSweep : public ::testing::TestWithParam<Param> {};

TEST_P(MultiCutSweep, PerCutGoldenYHoldsAndReconstructsExactly) {
  const Param param = GetParam();
  Rng rng(param.seed);
  circuit::MultiCutAnsatzOptions options;
  options.num_cuts = param.num_cuts;
  options.block_width = param.block_width;
  const circuit::MultiCutAnsatz ansatz = circuit::make_multi_cut_golden_ansatz(options, rng);

  ASSERT_EQ(ansatz.cuts.size(), static_cast<std::size_t>(param.num_cuts));
  const FragmentGraph graph = make_fragment_graph(ansatz.circuit, ansatz.cuts);
  EXPECT_EQ(graph.total_cuts(), param.num_cuts);

  // Exact detection: Y golden at every cut.
  const GoldenDetectionReport report = detect_golden_exact(graph, 1e-9);
  NeglectSpec spec(param.num_cuts);
  for (int k = 0; k < param.num_cuts; ++k) {
    ASSERT_TRUE(report.golden[static_cast<std::size_t>(k)]
                             [static_cast<std::size_t>(Pauli::Y)])
        << "cut " << k;
    spec.neglect(k, Pauli::Y);
  }

  // Golden-aware reconstruction equals the uncut distribution.
  sim::StateVector sv(ansatz.circuit.num_qubits());
  sv.apply_circuit(ansatz.circuit);
  const std::vector<double> truth = sv.probabilities();

  backend::StatevectorBackend backend(7);
  CutRunOptions run;
  run.exact = true;
  run.golden_mode = GoldenMode::Provided;
  run.provided_spec = spec;
  const CutResponse result = run_cut(ansatz.circuit, ansatz.cuts, backend, run);

  std::uint64_t expected_terms = 1;
  for (int k = 0; k < param.num_cuts; ++k) expected_terms *= 3;
  EXPECT_EQ(result.reconstruction.terms, expected_terms);
  for (std::size_t x = 0; x < truth.size(); ++x) {
    ASSERT_NEAR(result.reconstruction.raw_probabilities[x], truth[x], 1e-8) << x;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, MultiCutSweep,
                         ::testing::Values(Param{1, 2, 1}, Param{1, 3, 2}, Param{2, 2, 3},
                                           Param{2, 2, 4}, Param{2, 3, 5}, Param{3, 2, 6},
                                           Param{3, 2, 7}));

TEST(MultiCutAnsatz, OptionValidation) {
  Rng rng(1);
  circuit::MultiCutAnsatzOptions options;
  options.num_cuts = 0;
  EXPECT_THROW((void)circuit::make_multi_cut_golden_ansatz(options, rng), Error);
  options.num_cuts = 2;
  options.block_width = 1;
  EXPECT_THROW((void)circuit::make_multi_cut_golden_ansatz(options, rng), Error);
}

TEST(MultiCutAnsatz, ExecutionCountsMatchFormula) {
  Rng rng(9);
  circuit::MultiCutAnsatzOptions options;
  options.num_cuts = 2;
  const circuit::MultiCutAnsatz ansatz = circuit::make_multi_cut_golden_ansatz(options, rng);
  const FragmentGraph graph = make_fragment_graph(ansatz.circuit, ansatz.cuts);

  NeglectSpec spec(2);
  spec.neglect(0, Pauli::Y).neglect(1, Pauli::Y);

  backend::StatevectorBackend backend(2);
  ExecutionOptions exec;
  exec.exact = true;
  const ChainFragmentData data = execute_chain(graph, ChainNeglectSpec{{spec}}, backend, exec);
  // Upstream 2^2 settings, downstream 4^2 preps.
  EXPECT_EQ(data.total_jobs, 4u + 16u);
}

}  // namespace
}  // namespace qcut::cutting
