// Chain cutting end to end: exact 3-fragment reconstruction against the
// statevector ground truth, per-boundary golden neglection, agreement of the
// single-outcome and diagonal-expectation paths with the full distribution,
// and bit-for-bit N=2 equivalence with the pre-chain Bipartition pipeline.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <functional>

#include "backend/statevector_backend.hpp"
#include "circuit/random.hpp"
#include "cutting/fragment_executor.hpp"
#include "cutting/golden.hpp"
#include "cutting/reconstructor.hpp"
#include "cutting/variants.hpp"
#include "sim/statevector.hpp"
#include "telemetry/metrics.hpp"

namespace qcut::cutting {
namespace {

using circuit::WirePoint;

/// 5 qubits, all-real gates, 3 fragments: {0,1} -q1-> {1,2,3} -q3-> {3,4}.
/// Real amplitudes make Pauli-Y (and only Y: the ry on each cut wire keeps
/// X and Z entangled with the fragment outputs) golden at both boundaries.
Circuit chain5() {
  Circuit c(5);
  c.h(0).cx(0, 1).ry(0.3, 1);                 // ops 0-2, fragment 0
  c.cx(1, 2).ry(0.5, 2).cx(2, 3).ry(0.4, 3);  // ops 3-6, fragment 1
  c.cx(3, 4).ry(0.2, 4);                      // ops 7-8, fragment 2
  return c;
}

std::vector<std::vector<WirePoint>> chain5_boundaries() {
  return {{WirePoint{1, 2}}, {WirePoint{3, 6}}};
}

std::vector<double> truth_of(const Circuit& c) {
  sim::StateVector sv(c.num_qubits());
  sv.apply_circuit(c);
  return sv.probabilities();
}

/// Index of the last operation acting on `qubit`.
std::size_t last_op_on(const Circuit& c, int qubit) {
  std::size_t last = 0;
  for (std::size_t i = 0; i < c.num_ops(); ++i) {
    if (c.op(i).acts_on(qubit)) last = i;
  }
  return last;
}

/// `width`-qubit 3-fragment ry+cx chain: qubit 0, then all qubits, then the
/// last qubit, one cut wire per boundary.
Circuit brick_chain(int width, std::vector<std::vector<WirePoint>>& boundaries) {
  Circuit c(width);
  c.ry(0.3, 0);
  boundaries = {{WirePoint{0, last_op_on(c, 0)}}};
  for (int layer = 0; layer < 3; ++layer) {
    for (int q = 0; q < width; ++q) c.ry(0.1 * (q + 1) + 0.7 * layer, q);
    for (int q = layer % 2; q + 1 < width; q += 2) c.cx(q, q + 1);
  }
  boundaries.push_back({WirePoint{width - 1, last_op_on(c, width - 1)}});
  c.ry(0.9, width - 1);
  return c;
}

TEST(ChainCutting, ThreeFragmentExactReconstructionMatchesTruth) {
  const Circuit c = chain5();
  const FragmentGraph graph = make_fragment_chain(c, chain5_boundaries());
  const ChainNeglectSpec spec = ChainNeglectSpec::none(graph);

  backend::StatevectorBackend backend(1);
  ExecutionOptions exec;
  exec.exact = true;
  const ChainFragmentData data = execute_chain(graph, spec, backend, exec);

  // Full variant set: 3 settings, 6x3 interior, 6 preps.
  EXPECT_EQ(data.total_jobs, 3u + 18u + 6u);

  const ReconstructionResult result = reconstruct_distribution(graph, data, spec);
  EXPECT_EQ(result.terms, 16u);
  const std::vector<double> truth = truth_of(c);
  ASSERT_EQ(result.raw_probabilities.size(), truth.size());
  for (std::size_t x = 0; x < truth.size(); ++x) {
    ASSERT_NEAR(result.raw_probabilities[x], truth[x], 1e-8) << x;
  }
}

TEST(ChainCutting, PerBoundaryGoldenNeglectionStaysExactAndShrinksVariants) {
  const Circuit c = chain5();
  const auto boundaries = chain5_boundaries();
  const FragmentGraph graph = make_fragment_chain(c, boundaries);

  // Exact detection finds Y golden at both boundaries (real amplitudes).
  const std::vector<NeglectSpec> specs = detect_chain_golden_specs(c, boundaries);
  ASSERT_EQ(specs.size(), 2u);
  EXPECT_TRUE(specs[0].is_neglected(0, Pauli::Y));
  EXPECT_TRUE(specs[1].is_neglected(0, Pauli::Y));
  const ChainNeglectSpec golden{specs};

  // Fewer variants at every fragment than the no-neglect chain.
  const ChainVariantCounts golden_counts = count_chain_variants(graph, golden);
  const ChainVariantCounts full_counts =
      count_chain_variants(graph, ChainNeglectSpec::none(graph));
  ASSERT_EQ(golden_counts.per_fragment.size(), 3u);
  EXPECT_EQ(full_counts.per_fragment, (std::vector<std::size_t>{3, 18, 6}));
  EXPECT_EQ(golden_counts.per_fragment, (std::vector<std::size_t>{2, 8, 4}));

  backend::StatevectorBackend backend(1);
  ExecutionOptions exec;
  exec.exact = true;
  const ChainFragmentData data = execute_chain(graph, golden, backend, exec);
  EXPECT_EQ(data.total_jobs, golden_counts.total());

  const ReconstructionResult result = reconstruct_distribution(graph, data, golden);
  EXPECT_EQ(result.terms, 9u);  // 3 x 3 instead of 4 x 4
  const std::vector<double> truth = truth_of(c);
  for (std::size_t x = 0; x < truth.size(); ++x) {
    ASSERT_NEAR(result.raw_probabilities[x], truth[x], 1e-8) << x;
  }
}

TEST(ChainCutting, ProbabilityOfAndDiagonalExpectationAgreeWithDistribution) {
  const Circuit c = chain5();
  const FragmentGraph graph = make_fragment_chain(c, chain5_boundaries());
  const ChainNeglectSpec spec{detect_chain_golden_specs(c, chain5_boundaries())};

  backend::StatevectorBackend backend(2);
  ExecutionOptions exec;
  exec.shots_per_variant = 2000;
  const ChainFragmentData data = execute_chain(graph, spec, backend, exec);

  const ReconstructionResult full = reconstruct_distribution(graph, data, spec);
  for (index_t outcome : {index_t{0}, index_t{7}, index_t{19}, index_t{31}}) {
    EXPECT_NEAR(reconstruct_probability_of(graph, data, spec, outcome),
                full.raw_probabilities[outcome], 1e-12)
        << outcome;
  }

  std::vector<double> diagonal(full.raw_probabilities.size());
  for (std::size_t x = 0; x < diagonal.size(); ++x) {
    diagonal[x] = parity(x) == 0 ? 1.0 : -1.0;
  }
  double folded = 0.0;
  for (std::size_t x = 0; x < diagonal.size(); ++x) {
    folded += diagonal[x] * full.raw_probabilities[x];
  }
  EXPECT_NEAR(reconstruct_diagonal_expectation(graph, data, spec, diagonal), folded, 1e-12);
}

/// Tasks the thread pools ran while `fn` executed: zero when a chain
/// reconstruction stayed inline.
std::uint64_t pool_tasks_during(const std::function<void()>& fn) {
  const auto tasks = [] {
    return telemetry::MetricsRegistry::global().snapshot().counter_value("pool.tasks");
  };
  const std::uint64_t before = tasks();
  fn();
  return tasks() - before;
}

/// Chain reconstruction runs inline below kMinParallelReconstructionWork and
/// fans out over the pool at or above it; the pool's task counter shows
/// which side each case is on. The small cases (a 5-qubit 2-fragment chain,
/// chain5) have work estimates of about 2^10; the wide ones (a 15-qubit
/// 2-cut ansatz and a 14-qubit brick chain) above 2^19. On both sides the
/// result is bit for bit the same at every pool size, including a
/// single-worker pool (which never dispatches), with and without golden
/// neglect; and at N=2 it equals the Bipartition path, whose accumulation
/// always takes the pool.
TEST(ChainCutting, InlineAndPooledReconstructionAgreeAcrossTheWorkThreshold) {
  parallel::ThreadPool one(1);
  parallel::ThreadPool three(3);
  ReconstructionOptions serial;
  serial.pool = &one;
  ReconstructionOptions pooled;
  pooled.pool = &three;

  {
    Rng rng(31);
    circuit::GoldenAnsatzOptions small_options;
    small_options.num_qubits = 5;
    const circuit::GoldenAnsatz small = circuit::make_golden_ansatz(small_options, rng);
    circuit::MultiCutAnsatzOptions wide_options;
    wide_options.num_cuts = 2;
    wide_options.block_width = 7;
    const circuit::MultiCutAnsatz wide = circuit::make_multi_cut_golden_ansatz(wide_options, rng);
    const std::array<std::pair<const Circuit*, std::vector<WirePoint>>, 2> pairs = {
        std::pair{&small.circuit, std::vector<WirePoint>{small.cut}},
        std::pair{&wide.circuit, wide.cuts}};
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      const auto& [c, cuts] = pairs[i];
      const Bipartition bp = make_bipartition(*c, cuts);
      const FragmentGraph graph = make_fragment_graph(*c, cuts);
      const NeglectSpec spec = NeglectSpec::none(bp.num_cuts());
      const ChainNeglectSpec chain_spec{{spec}};
      ExecutionOptions exec;
      exec.shots_per_variant = 1000;
      backend::StatevectorBackend direct_backend(3);
      const FragmentData direct = execute_fragments(bp, spec, direct_backend, exec);
      backend::StatevectorBackend chain_backend(3);
      const ChainFragmentData data = execute_chain(graph, chain_spec, chain_backend, exec);
      std::vector<double> chained;
      EXPECT_EQ(pool_tasks_during([&] {
                  chained = reconstruct_distribution(graph, data, chain_spec, pooled)
                                .raw_probabilities;
                }) > 0,
                i == 1)
          << "two-fragment case " << i;
      EXPECT_EQ(chained, reconstruct_distribution(bp, direct, spec).raw_probabilities)
          << "two-fragment case " << i;
    }
  }

  std::vector<std::vector<WirePoint>> wide_boundaries;
  const Circuit wide = brick_chain(14, wide_boundaries);
  const std::array<std::pair<Circuit, std::vector<std::vector<WirePoint>>>, 2> cases = {
      std::pair{chain5(), chain5_boundaries()}, std::pair{wide, wide_boundaries}};
  const std::array<bool, 2> above_threshold = {false, true};

  for (std::size_t i = 0; i < cases.size(); ++i) {
    const auto& [c, boundaries] = cases[i];
    const FragmentGraph graph = make_fragment_chain(c, boundaries);
    const std::array<ChainNeglectSpec, 2> specs = {
        ChainNeglectSpec::none(graph), ChainNeglectSpec{detect_chain_golden_specs(c, boundaries)}};
    for (const ChainNeglectSpec& spec : specs) {
      backend::StatevectorBackend backend(5);
      ExecutionOptions exec;
      exec.shots_per_variant = 2000;
      const ChainFragmentData data = execute_chain(graph, spec, backend, exec);

      const ReconstructionResult reference = reconstruct_distribution(graph, data, spec, serial);
      std::vector<double> fanned;
      EXPECT_EQ(pool_tasks_during([&] {
                  fanned = reconstruct_distribution(graph, data, spec, pooled).raw_probabilities;
                }) > 0,
                above_threshold[i])
          << "case " << i;
      EXPECT_EQ(fanned, reference.raw_probabilities) << "case " << i;
      EXPECT_EQ(reconstruct_distribution(graph, data, spec).raw_probabilities,
                reference.raw_probabilities)
          << "case " << i;
    }
  }
}

/// The N=2 chain must reproduce the historical Bipartition pipeline bit for
/// bit at equal seeds: same variant circuits, same seed streams, same shot
/// plan, same contraction arithmetic.
TEST(ChainCutting, TwoFragmentChainIsBitForBitEqualToBipartitionPath) {
  Rng rng(17);
  circuit::GoldenAnsatzOptions options;
  options.num_qubits = 5;
  const circuit::GoldenAnsatz ansatz = circuit::make_golden_ansatz(options, rng);
  const std::array<WirePoint, 1> cuts = {ansatz.cut};

  const Bipartition bp = make_bipartition(ansatz.circuit, cuts);
  const FragmentGraph graph = make_fragment_graph(ansatz.circuit, cuts);

  NeglectSpec golden(1);
  golden.neglect(0, ansatz.golden_basis);

  struct Case {
    const char* name;
    NeglectSpec spec;
    ExecutionOptions exec;
  };
  std::vector<Case> cases;
  {
    Case sampled{"sampled", NeglectSpec::none(1), {}};
    sampled.exec.shots_per_variant = 1500;
    cases.push_back(sampled);

    Case budget{"budget", NeglectSpec::none(1), {}};
    budget.exec.shots_per_variant = 0;
    budget.exec.total_shot_budget = 5000;
    cases.push_back(budget);

    Case golden_case{"golden", golden, {}};
    golden_case.exec.shots_per_variant = 1500;
    golden_case.exec.seed_stream_base = 1u << 24;
    cases.push_back(golden_case);

    Case exact{"exact", NeglectSpec::none(1), {}};
    exact.exec.exact = true;
    cases.push_back(exact);
  }

  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);

    backend::StatevectorBackend direct_backend(9);
    const FragmentData direct = execute_fragments(bp, c.spec, direct_backend, c.exec);
    const ReconstructionResult expected = reconstruct_distribution(bp, direct, c.spec);

    backend::StatevectorBackend chain_backend(9);
    const ChainNeglectSpec chain_spec{{c.spec}};
    const ChainFragmentData data = execute_chain(graph, chain_spec, chain_backend, c.exec);
    const ReconstructionResult actual = reconstruct_distribution(graph, data, chain_spec);

    EXPECT_EQ(actual.raw_probabilities, expected.raw_probabilities);
    EXPECT_EQ(actual.terms, expected.terms);
    EXPECT_EQ(data.total_jobs, direct.total_jobs);
    EXPECT_EQ(data.total_shots, direct.total_shots);
    EXPECT_EQ(data.shots_per_variant, direct.shots_per_variant);

    // The per-variant distributions themselves coincide: same circuits and
    // the historical seed-stream layout.
    for (const auto& [setting, dist] : direct.upstream) {
      EXPECT_EQ(data.distribution(0, FragmentVariantKey{0, setting}), dist);
    }
    for (const auto& [prep, dist] : direct.downstream) {
      EXPECT_EQ(data.distribution(1, FragmentVariantKey{prep, 0}), dist);
    }
  }
}

TEST(ChainCutting, VariantCircuitsMatchLegacyVariants) {
  Rng rng(23);
  circuit::GoldenAnsatzOptions options;
  options.num_qubits = 5;
  const circuit::GoldenAnsatz ansatz = circuit::make_golden_ansatz(options, rng);
  const std::array<WirePoint, 1> cuts = {ansatz.cut};
  const Bipartition bp = make_bipartition(ansatz.circuit, cuts);
  const FragmentGraph graph = make_fragment_graph(ansatz.circuit, cuts);

  for (std::uint32_t s = 0; s < 3; ++s) {
    const Circuit legacy = make_upstream_variant(bp, s).circuit;
    const Circuit chain = make_fragment_variant(graph, 0, FragmentVariantKey{0, s}).circuit;
    ASSERT_EQ(chain.num_ops(), legacy.num_ops());
    for (std::size_t i = 0; i < legacy.num_ops(); ++i) {
      EXPECT_EQ(chain.op(i).kind, legacy.op(i).kind);
      EXPECT_EQ(chain.op(i).qubits, legacy.op(i).qubits);
      EXPECT_EQ(chain.op(i).params, legacy.op(i).params);
    }
  }
  for (std::uint32_t p = 0; p < 6; ++p) {
    const Circuit legacy = make_downstream_variant(bp, p).circuit;
    const Circuit chain = make_fragment_variant(graph, 1, FragmentVariantKey{p, 0}).circuit;
    ASSERT_EQ(chain.num_ops(), legacy.num_ops());
    for (std::size_t i = 0; i < legacy.num_ops(); ++i) {
      EXPECT_EQ(chain.op(i).kind, legacy.op(i).kind);
      EXPECT_EQ(chain.op(i).qubits, legacy.op(i).qubits);
      EXPECT_EQ(chain.op(i).params, legacy.op(i).params);
    }
  }
}

}  // namespace
}  // namespace qcut::cutting
