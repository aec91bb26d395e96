// Chain cutting end to end: exact 3-fragment reconstruction against the
// statevector ground truth, per-boundary golden neglection, agreement of the
// single-outcome and diagonal-expectation paths with the full distribution,
// and pinned two-fragment results.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstdio>
#include <functional>
#include <span>
#include <utility>

#include "backend/statevector_backend.hpp"
#include "circuit/random.hpp"
#include "cutting/fragment_executor.hpp"
#include "cutting/golden.hpp"
#include "cutting/reconstructor.hpp"
#include "cutting/uncertainty.hpp"
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
/// neglect.
TEST(ChainCutting, InlineAndPooledReconstructionAgreeAcrossTheWorkThreshold) {
  parallel::ThreadPool one(1);
  parallel::ThreadPool three(3);
  ReconstructionOptions serial;
  serial.pool = &one;
  ReconstructionOptions pooled;
  pooled.pool = &three;

  Rng rng(31);
  circuit::GoldenAnsatzOptions small_options;
  small_options.num_qubits = 5;
  const circuit::GoldenAnsatz small = circuit::make_golden_ansatz(small_options, rng);
  circuit::MultiCutAnsatzOptions wide_options;
  wide_options.num_cuts = 2;
  wide_options.block_width = 7;
  const circuit::MultiCutAnsatz wide_ansatz =
      circuit::make_multi_cut_golden_ansatz(wide_options, rng);
  std::vector<std::vector<WirePoint>> wide_boundaries;
  const Circuit wide = brick_chain(14, wide_boundaries);
  const std::array<std::pair<Circuit, std::vector<std::vector<WirePoint>>>, 4> cases = {
      std::pair{small.circuit, std::vector<std::vector<WirePoint>>{{small.cut}}},
      std::pair{wide_ansatz.circuit, std::vector<std::vector<WirePoint>>{wide_ansatz.cuts}},
      std::pair{chain5(), chain5_boundaries()}, std::pair{wide, wide_boundaries}};
  const std::array<bool, 4> above_threshold = {false, true, false, true};

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

/// 64-bit FNV-1a over the bytes of `values`: changes with any bit of any
/// entry, so equal hashes mean bit-for-bit equal vectors.
std::uint64_t fnv1a(const std::vector<double>& values) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (double value : values) {
    for (unsigned char byte : std::bit_cast<std::array<unsigned char, sizeof(double)>>(value)) {
      hash ^= byte;
      hash *= 0x100000001b3ull;
    }
  }
  return hash;
}

struct PinnedRun {
  std::uint64_t hash = 0;
  std::uint64_t terms = 0;
  std::uint64_t total_jobs = 0;
  std::uint64_t total_shots = 0;

  friend bool operator==(const PinnedRun&, const PinnedRun&) = default;
  friend void PrintTo(const PinnedRun& run, std::ostream* os) {
    char buffer[128];
    std::snprintf(buffer, sizeof(buffer), "{0x%016llxull, %llu, %llu, %llu}",
                  static_cast<unsigned long long>(run.hash),
                  static_cast<unsigned long long>(run.terms),
                  static_cast<unsigned long long>(run.total_jobs),
                  static_cast<unsigned long long>(run.total_shots));
    *os << buffer;
  }
};

/// Executes and reconstructs one two-fragment cut.
PinnedRun run_two_fragment(const Circuit& c, std::span<const WirePoint> cuts,
                           const NeglectSpec& spec, const ExecutionOptions& exec) {
  const FragmentGraph graph = make_fragment_graph(c, cuts);
  const ChainNeglectSpec chain_spec{{spec}};
  backend::StatevectorBackend backend(9);
  const ChainFragmentData data = execute_chain(graph, chain_spec, backend, exec);
  const ReconstructionResult result = reconstruct_distribution(graph, data, chain_spec);
  return PinnedRun{fnv1a(result.raw_probabilities), result.terms, data.total_jobs,
                   data.total_shots};
}

/// Bootstrap of a sampled two-fragment cut: the expectation's uncertainty
/// and the distribution band.
std::pair<ExpectationUncertainty, DistributionUncertainty> bootstrap_two_fragment(
    const Circuit& c, std::span<const WirePoint> cuts, const NeglectSpec& spec,
    const ExecutionOptions& exec, const DiagonalObservable& observable,
    const BootstrapOptions& options) {
  const FragmentGraph graph = make_fragment_graph(c, cuts);
  const ChainNeglectSpec chain_spec{{spec}};
  backend::StatevectorBackend backend(9);
  const ChainFragmentData data = execute_chain(graph, chain_spec, backend, exec);
  return {bootstrap_expectation(graph, data, chain_spec, observable, options),
          bootstrap_distribution(graph, data, chain_spec, options)};
}

/// Two-fragment results pinned to fixed values: raw distributions (by
/// hash), term counts, job and shot totals, and bootstrap replicas at a
/// fixed seed. Any change to the
/// variant circuits, seed streams, shot plan, contraction arithmetic or
/// bootstrap RNG order moves at least one pin.
TEST(ChainCutting, TwoFragmentResultsArePinned) {
  Rng rng(17);
  circuit::GoldenAnsatzOptions options;
  options.num_qubits = 5;
  const circuit::GoldenAnsatz ansatz = circuit::make_golden_ansatz(options, rng);
  const std::array<WirePoint, 1> cuts = {ansatz.cut};
  NeglectSpec golden(1);
  golden.neglect(0, ansatz.golden_basis);

  // {none, golden} x {exact, 1000 shots}; prefix batching must not move a bit.
  const std::array<PinnedRun, 4> expected = {
      PinnedRun{0x8bcfe910ac3190f4ull, 4, 9, 0},
      PinnedRun{0x18976896b84ecbe2ull, 4, 9, 9000},
      PinnedRun{0x8bcfe910ac3190f4ull, 3, 6, 0},
      PinnedRun{0xcb1af5ebf821edf2ull, 3, 6, 6000},
  };
  std::size_t index = 0;
  for (const NeglectSpec& spec : {NeglectSpec::none(1), golden}) {
    for (const bool exact : {true, false}) {
      for (const bool batched : {true, false}) {
        SCOPED_TRACE(::testing::Message() << "case " << index << " batched " << batched);
        ExecutionOptions exec;
        exec.exact = exact;
        exec.shots_per_variant = 1000;
        exec.prefix_batching = batched;
        EXPECT_EQ(run_two_fragment(ansatz.circuit, cuts, spec, exec), expected[index]);
      }
      ++index;
    }
  }

  // Two cuts under string-level odd-Y neglect, with a total shot budget.
  circuit::MultiCutAnsatzOptions multi_options;
  multi_options.num_cuts = 2;
  multi_options.block_width = 2;
  const circuit::MultiCutAnsatz multi = circuit::make_multi_cut_golden_ansatz(multi_options, rng);
  ExecutionOptions budget;
  budget.shots_per_variant = 0;
  budget.total_shot_budget = 7001;
  EXPECT_EQ(run_two_fragment(multi.circuit, multi.cuts, neglect_odd_y_strings(2), budget),
            (PinnedRun{0x31cccfc5fe492d99ull, 10, 25, 7001}));

  // Bootstrap replicas at a fixed seed.
  ExecutionOptions sampled;
  sampled.shots_per_variant = 1000;
  BootstrapOptions boot;
  boot.replicas = 40;
  boot.seed = 2024;
  const auto [expectation, band] =
      bootstrap_two_fragment(ansatz.circuit, cuts, golden, sampled,
                             DiagonalObservable::parity(ansatz.circuit.num_qubits()), boot);
  EXPECT_EQ(expectation.estimate, -0x1.514a0a0f4d7aep-4);
  EXPECT_EQ(expectation.standard_error, 0x1.c534ae203d216p-6);
  EXPECT_EQ(expectation.ci_lower, -0x1.0a775246f4b11p-3);
  EXPECT_EQ(expectation.ci_upper, -0x1.310df4b549226p-5);
  std::vector<double> bands = band.mean;
  for (const std::vector<double>* part : {&band.standard_error, &band.ci_lower, &band.ci_upper}) {
    bands.insert(bands.end(), part->begin(), part->end());
  }
  EXPECT_EQ(fnv1a(bands), 0x84dd1fc6250f1676ull);
}

}  // namespace
}  // namespace qcut::cutting
