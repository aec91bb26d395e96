// Tests of the golden cutting point machinery: NeglectSpec bookkeeping,
// exact detection on designed circuits, and the complexity formulas the
// paper states (terms O(4^Kr 3^Kg), evaluations O(6^Kr 4^Kg)).

#include "cutting/golden.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "circuit/random.hpp"
#include "common/error.hpp"
#include "cutting/variants.hpp"
#include "linalg/ops.hpp"
#include "sim/statevector.hpp"

namespace qcut::cutting {
namespace {

/// The original exact detector, kept verbatim as the oracle: generic
/// StateVector simulation of the upstream fragment, one dense conditional
/// matrix per output bitstring, and one kron'd operator per (cut, Pauli,
/// context), contracted with linalg::trace_of_product.
GoldenDetectionReport reference_detect_golden_exact(const FragmentGraph& graph, double tol) {
  const ChainFragment& f1 = graph.fragments[0];
  const int num_cuts = f1.num_out();
  const std::vector<int>& cut_qubits = f1.out_cut_qubits;
  const std::vector<int>& out_qubits = f1.output_qubits;

  sim::StateVector psi(f1.width());
  psi.apply_circuit(f1.circuit);
  const linalg::CVec& amps = psi.amplitudes();

  const index_t out_dim = pow2(static_cast<int>(out_qubits.size()));
  const index_t cut_dim = pow2(num_cuts);
  std::vector<linalg::CMat> conditional(out_dim, linalg::CMat(cut_dim, cut_dim));
  for (index_t b1 = 0; b1 < out_dim; ++b1) {
    const index_t base = scatter_bits(b1, out_qubits);
    for (index_t c = 0; c < cut_dim; ++c) {
      const index_t ic = base | scatter_bits(c, cut_qubits);
      for (index_t cp = 0; cp < cut_dim; ++cp) {
        const index_t icp = base | scatter_bits(cp, cut_qubits);
        conditional[b1](c, cp) = amps[ic] * std::conj(amps[icp]);
      }
    }
  }

  std::vector<linalg::CMat> projectors;
  for (linalg::PrepState s : linalg::kAllPrepStates) {
    const linalg::CVec& v = linalg::prep_state_vector(s);
    projectors.push_back(linalg::outer(v, v));
  }

  GoldenDetectionReport report;
  report.violation.assign(static_cast<std::size_t>(num_cuts), {0.0, 0.0, 0.0, 0.0});
  report.golden.assign(static_cast<std::size_t>(num_cuts), {false, false, false, false});
  std::uint64_t num_contexts = 1;
  for (int j = 0; j + 1 < num_cuts; ++j) num_contexts *= kNumPrepStates;
  std::vector<linalg::CMat> slot(static_cast<std::size_t>(num_cuts));
  for (int k = 0; k < num_cuts; ++k) {
    for (Pauli p : linalg::kAllPaulis) {
      double violation = 0.0;
      for (std::uint64_t ctx = 0; ctx < num_contexts; ++ctx) {
        std::uint64_t rest = ctx;
        for (int j = 0; j < num_cuts; ++j) {
          if (j == k) {
            slot[static_cast<std::size_t>(j)] = linalg::pauli_matrix(p);
          } else {
            slot[static_cast<std::size_t>(j)] =
                projectors[static_cast<std::size_t>(rest % kNumPrepStates)];
            rest /= kNumPrepStates;
          }
        }
        linalg::CMat op = slot[static_cast<std::size_t>(num_cuts - 1)];
        for (int j = num_cuts - 2; j >= 0; --j) {
          op = linalg::kron(op, slot[static_cast<std::size_t>(j)]);
        }
        for (index_t b1 = 0; b1 < out_dim; ++b1) {
          violation =
              std::max(violation, std::abs(linalg::trace_of_product(conditional[b1], op)));
        }
      }
      report.violation[static_cast<std::size_t>(k)][static_cast<std::size_t>(p)] = violation;
      report.golden[static_cast<std::size_t>(k)][static_cast<std::size_t>(p)] =
          p != Pauli::I && violation <= tol;
    }
  }
  return report;
}

void expect_reports_identical(const GoldenDetectionReport& want,
                              const GoldenDetectionReport& got) {
  ASSERT_EQ(want.violation.size(), got.violation.size());
  for (std::size_t k = 0; k < want.violation.size(); ++k) {
    for (std::size_t p = 0; p < 4; ++p) {
      EXPECT_EQ(want.violation[k][p], got.violation[k][p]) << "cut " << k << " pauli " << p;
      EXPECT_EQ(want.golden[k][p], got.golden[k][p]) << "cut " << k << " pauli " << p;
    }
  }
}

TEST(NeglectSpec, DefaultIsAllActive) {
  const NeglectSpec spec(2);
  EXPECT_EQ(spec.num_cuts(), 2);
  EXPECT_EQ(spec.num_golden_cuts(), 0);
  EXPECT_EQ(spec.num_active_strings(), 16u);
  EXPECT_EQ(spec.per_cut_term_count(), 16u);
  EXPECT_EQ(spec.active_paulis(0).size(), 4u);
}

TEST(NeglectSpec, NeglectReducesCounts) {
  NeglectSpec spec(2);
  spec.neglect(0, Pauli::Y);
  EXPECT_EQ(spec.num_golden_cuts(), 1);
  EXPECT_EQ(spec.num_active_strings(), 12u);  // 3 * 4
  spec.neglect(1, Pauli::Y);
  EXPECT_EQ(spec.num_golden_cuts(), 2);
  EXPECT_EQ(spec.num_active_strings(), 9u);   // 3 * 3
  EXPECT_TRUE(spec.is_neglected(0, Pauli::Y));
  EXPECT_FALSE(spec.is_neglected(0, Pauli::X));
}

TEST(NeglectSpec, IdentityCannotBeNeglected) {
  NeglectSpec spec(1);
  EXPECT_THROW(spec.neglect(0, Pauli::I), Error);
  EXPECT_THROW(spec.neglect(1, Pauli::X), Error);
}

TEST(NeglectSpec, StringLevelNeglect) {
  NeglectSpec spec(2);
  spec.neglect_string({Pauli::Y, Pauli::I});
  EXPECT_EQ(spec.num_active_strings(), 15u);
  EXPECT_FALSE(spec.is_string_active(std::array<Pauli, 2>{Pauli::Y, Pauli::I}));
  EXPECT_TRUE(spec.is_string_active(std::array<Pauli, 2>{Pauli::Y, Pauli::X}));
  EXPECT_THROW(spec.neglect_string({Pauli::Y}), Error);
}

TEST(NeglectSpec, OddYHelper) {
  const NeglectSpec one = neglect_odd_y_strings(1);
  EXPECT_EQ(one.num_active_strings(), 3u);
  EXPECT_TRUE(one.is_neglected(0, Pauli::Y));

  const NeglectSpec two = neglect_odd_y_strings(2);
  EXPECT_EQ(two.num_active_strings(), 10u);  // (16 + 4) / 2
  EXPECT_FALSE(two.is_string_active(std::array<Pauli, 2>{Pauli::Y, Pauli::I}));
  EXPECT_TRUE(two.is_string_active(std::array<Pauli, 2>{Pauli::Y, Pauli::Y}));

  const NeglectSpec three = neglect_odd_y_strings(3);
  EXPECT_EQ(three.num_active_strings(), 36u);  // (64 + 8) / 2
}

TEST(NeglectSpec, ActiveStringsEnumerationIsConsistent) {
  NeglectSpec spec(2);
  spec.neglect(0, Pauli::X).neglect(1, Pauli::Z);
  const auto strings = spec.active_strings();
  EXPECT_EQ(strings.size(), spec.num_active_strings());
  for (const auto& s : strings) {
    EXPECT_NE(s[0], Pauli::X);
    EXPECT_NE(s[1], Pauli::Z);
  }
}

TEST(VariantCounts, PaperNumbersForOneCut) {
  // Standard: 3 settings + 6 preps = 9 executions; golden: 2 + 4 = 6.
  const NeglectSpec standard(1);
  const VariantCounts standard_counts = count_variants(standard);
  EXPECT_EQ(standard_counts.upstream, 3u);
  EXPECT_EQ(standard_counts.downstream, 6u);
  EXPECT_EQ(standard_counts.total(), 9u);

  NeglectSpec golden(1);
  golden.neglect(0, Pauli::Y);
  const VariantCounts golden_counts = count_variants(golden);
  EXPECT_EQ(golden_counts.upstream, 2u);
  EXPECT_EQ(golden_counts.downstream, 4u);
  EXPECT_EQ(golden_counts.total(), 6u);
}

TEST(VariantCounts, NeglectingZKeepsZSettingForIdentity) {
  // Z data still needed by the I element; only reconstruction terms shrink.
  NeglectSpec spec(1);
  spec.neglect(0, Pauli::Z);
  const VariantCounts counts = count_variants(spec);
  EXPECT_EQ(counts.upstream, 3u);
  EXPECT_EQ(counts.downstream, 6u);
  EXPECT_EQ(spec.num_active_strings(), 3u);
}

TEST(VariantCounts, ComplexityFormulaAcrossCutCounts) {
  for (int total_cuts = 1; total_cuts <= 3; ++total_cuts) {
    for (int golden_cuts = 0; golden_cuts <= total_cuts; ++golden_cuts) {
      NeglectSpec spec(total_cuts);
      for (int k = 0; k < golden_cuts; ++k) spec.neglect(k, Pauli::Y);
      std::uint64_t expected_terms = 1, expected_up = 1, expected_down = 1;
      for (int k = 0; k < total_cuts; ++k) {
        expected_terms *= (k < golden_cuts) ? 3 : 4;
        expected_up *= (k < golden_cuts) ? 2 : 3;
        expected_down *= (k < golden_cuts) ? 4 : 6;
      }
      EXPECT_EQ(spec.num_active_strings(), expected_terms)
          << "K=" << total_cuts << " Kg=" << golden_cuts;
      const VariantCounts counts = count_variants(spec);
      EXPECT_EQ(counts.upstream, expected_up);
      EXPECT_EQ(counts.downstream, expected_down);
    }
  }
}

TEST(DetectExact, GoldenYAnsatzIsDetected) {
  for (std::uint64_t seed : {1ull, 2ull, 3ull, 4ull}) {
    Rng rng(seed);
    circuit::GoldenAnsatzOptions options;
    options.num_qubits = 5;
    const circuit::GoldenAnsatz ansatz = circuit::make_golden_ansatz(options, rng);
    const std::array<circuit::WirePoint, 1> cuts = {ansatz.cut};
    const FragmentGraph graph = make_fragment_graph(ansatz.circuit, cuts);

    const GoldenDetectionReport report = detect_golden_exact(graph, 1e-9);
    EXPECT_TRUE(report.golden[0][static_cast<std::size_t>(Pauli::Y)]) << "seed " << seed;
    EXPECT_NEAR(report.violation[0][static_cast<std::size_t>(Pauli::Y)], 0.0, 1e-9);
    // X and Z are generically non-negligible for this ansatz.
    EXPECT_FALSE(report.golden[0][static_cast<std::size_t>(Pauli::X)]) << "seed " << seed;
    EXPECT_FALSE(report.golden[0][static_cast<std::size_t>(Pauli::Z)]) << "seed " << seed;
    EXPECT_FALSE(report.golden[0][static_cast<std::size_t>(Pauli::I)]);

    const NeglectSpec spec = report.to_spec();
    EXPECT_TRUE(spec.is_neglected(0, Pauli::Y));
    EXPECT_EQ(spec.num_active_strings(), 3u);
  }
}

TEST(DetectExact, GoldenXAnsatzIsDetected) {
  Rng rng(9);
  circuit::GoldenAnsatzOptions options;
  options.num_qubits = 5;
  options.golden_basis = Pauli::X;
  const circuit::GoldenAnsatz ansatz = circuit::make_golden_ansatz(options, rng);
  const std::array<circuit::WirePoint, 1> cuts = {ansatz.cut};
  const FragmentGraph graph = make_fragment_graph(ansatz.circuit, cuts);
  const GoldenDetectionReport report = detect_golden_exact(graph, 1e-9);
  EXPECT_TRUE(report.golden[0][static_cast<std::size_t>(Pauli::X)]);
}

TEST(DetectExact, GenericCircuitHasNoGoldenBasis) {
  // A genuinely generic upstream block (Hadamard + T + all three rotation
  // axes on the cut wire) has no golden basis. Note that "generic-looking"
  // is not enough: a CX from computational states followed by only phase
  // gates and RX keeps the conditional spinors in the Y-Z plane, which makes
  // X *exactly* golden - the detector is sensitive to such hidden structure.
  circuit::Circuit c(3);
  c.h(0).t(0).cx(0, 1).h(1).t(1).rx(0.5, 1).ry(0.3, 1).rz(0.7, 1);  // ops 0..7
  c.cx(1, 2).h(2);
  const std::array<circuit::WirePoint, 1> cuts = {circuit::WirePoint{1, 7}};
  const FragmentGraph graph = make_fragment_graph(c, cuts);
  const GoldenDetectionReport report = detect_golden_exact(graph, 1e-9);
  EXPECT_FALSE(report.golden[0][static_cast<std::size_t>(Pauli::X)]);
  EXPECT_FALSE(report.golden[0][static_cast<std::size_t>(Pauli::Y)]);
  EXPECT_FALSE(report.golden[0][static_cast<std::size_t>(Pauli::Z)]);
  EXPECT_GT(report.violation[0][static_cast<std::size_t>(Pauli::X)], 0.05);
  EXPECT_GT(report.violation[0][static_cast<std::size_t>(Pauli::Y)], 0.05);
  EXPECT_GT(report.violation[0][static_cast<std::size_t>(Pauli::Z)], 0.05);
}

TEST(DetectExact, BellStateUpstreamIsGoldenY) {
  // Paper Section II-A, case (ii): U12|00> = Bell state. The conditional
  // states on the Y eigenstates have equal magnitude and cancel.
  circuit::Circuit c(3);
  c.h(0).cx(0, 1);   // Bell pair on {0,1}
  c.cx(1, 2).h(2);   // downstream
  const std::array<circuit::WirePoint, 1> cuts = {circuit::WirePoint{1, 1}};
  const FragmentGraph graph = make_fragment_graph(c, cuts);
  const GoldenDetectionReport report = detect_golden_exact(graph, 1e-9);
  EXPECT_TRUE(report.golden[0][static_cast<std::size_t>(Pauli::Y)]);
}

TEST(DetectExact, TwoCutDisjointRealBlocksGoldenAtBothCuts) {
  circuit::Circuit c(4);
  c.h(0).cx(0, 1).ry(0.7, 1);
  c.h(3).cx(3, 2).ry(1.1, 2);
  c.cx(1, 2).rx(0.4, 1);
  const std::array<circuit::WirePoint, 2> cuts = {circuit::WirePoint{1, 2},
                                                  circuit::WirePoint{2, 5}};
  const FragmentGraph graph = make_fragment_graph(c, cuts);
  const GoldenDetectionReport report = detect_golden_exact(graph, 1e-9);
  EXPECT_TRUE(report.golden[0][static_cast<std::size_t>(Pauli::Y)]);
  EXPECT_TRUE(report.golden[1][static_cast<std::size_t>(Pauli::Y)]);
}

TEST(DetectExact, EntangledRealBlocksAreNotPerCutGolden) {
  // A real Bell pair ACROSS the two cut wires: <Y x Y> = -1, so the (Y, Y)
  // string survives and per-cut golden-Y must NOT be declared, even though
  // the upstream state is real (odd-Y strings still vanish).
  circuit::Circuit c(3);
  c.h(0);             // op 0: upstream spectator (the f1 output qubit)
  c.h(1).cx(1, 2);    // ops 1,2: Bell pair between the cut wires
  c.ry(0.7, 1);       // op 3: last upstream op on wire 1
  c.ry(1.1, 2);       // op 4: last upstream op on wire 2
  c.cx(1, 2).rx(0.4, 1);  // downstream
  const std::array<circuit::WirePoint, 2> cuts = {circuit::WirePoint{1, 3},
                                                  circuit::WirePoint{2, 4}};
  const FragmentGraph graph = make_fragment_graph(c, cuts);
  const GoldenDetectionReport report = detect_golden_exact(graph, 1e-9);
  EXPECT_FALSE(report.golden[0][static_cast<std::size_t>(Pauli::Y)]);
  EXPECT_FALSE(report.golden[1][static_cast<std::size_t>(Pauli::Y)]);

  // ...but the string-level odd-Y neglect is still exactly valid: strings
  // with one Y vanish while (Y, Y) does not. Verify via the violation of
  // the per-cut test being driven by the YY context only.
  EXPECT_GT(report.violation[0][static_cast<std::size_t>(Pauli::Y)], 0.1);
}

/// The engine-based detector reproduces the original detector's violations
/// bit for bit (==, not within a tolerance) on golden and generic upstream
/// fragments with 1 to 3 and 5 cuts.
TEST(DetectExact, MatchesReferenceImplementationBitForBit) {
  std::vector<FragmentGraph> cases;
  for (int n : {5, 7, 9}) {
    for (const Pauli basis : {Pauli::Y, Pauli::X}) {
      Rng rng(static_cast<std::uint64_t>(n) * 10 + static_cast<std::uint64_t>(basis));
      circuit::GoldenAnsatzOptions options;
      options.num_qubits = n;
      options.upstream_depth = 3;
      options.golden_basis = basis;
      const circuit::GoldenAnsatz ansatz = circuit::make_golden_ansatz(options, rng);
      const std::array<circuit::WirePoint, 1> cuts = {ansatz.cut};
      cases.push_back(make_fragment_graph(ansatz.circuit, cuts));
    }
  }
  for (int num_cuts : {2, 3}) {
    Rng rng(static_cast<std::uint64_t>(40 + num_cuts));
    circuit::MultiCutAnsatzOptions options;
    options.num_cuts = num_cuts;
    const circuit::MultiCutAnsatz ansatz = circuit::make_multi_cut_golden_ansatz(options, rng);
    cases.push_back(make_fragment_graph(ansatz.circuit, ansatz.cuts));
  }
  // Generic (General gate set) upstream blocks of 4..6 qubits, cut on the
  // last upstream wire after its last upstream gate.
  for (int up = 4; up <= 6; ++up) {
    Rng rng(static_cast<std::uint64_t>(50 + up));
    circuit::RandomCircuitOptions rc;
    rc.depth = 4;
    std::vector<int> upstream(static_cast<std::size_t>(up));
    for (int q = 0; q < up; ++q) upstream[static_cast<std::size_t>(q)] = q;
    circuit::Circuit c = circuit::random_circuit_on(rc, upstream, up + 2, rng);
    std::size_t last = 0;
    for (std::size_t i = 0; i < c.num_ops(); ++i) {
      const auto& qs = c.op(i).qubits;
      if (std::find(qs.begin(), qs.end(), up - 1) != qs.end()) last = i;
    }
    c.cx(up - 1, up).h(up + 1).cx(up, up + 1);
    const std::array<circuit::WirePoint, 1> cuts = {circuit::WirePoint{up - 1, last}};
    cases.push_back(make_fragment_graph(c, cuts));
  }
  // Five cuts (1296 contexts per cut and Pauli) on a generic 6-qubit
  // upstream block: wires 0..4 are cut after their last upstream gate and
  // wire 5 is the single upstream output.
  {
    Rng rng(57);
    circuit::RandomCircuitOptions rc;
    rc.depth = 3;
    const std::vector<int> upstream = {0, 1, 2, 3, 4, 5};
    circuit::Circuit c = circuit::random_circuit_on(rc, upstream, 8, rng);
    std::vector<circuit::WirePoint> cuts;
    for (int q = 0; q < 5; ++q) {
      std::size_t last = 0;
      for (std::size_t i = 0; i < c.num_ops(); ++i) {
        if (c.op(i).acts_on(q)) last = i;
      }
      cuts.push_back(circuit::WirePoint{q, last});
    }
    c.cx(0, 6).cx(1, 6).cx(2, 7).cx(3, 7).cx(4, 7).cx(6, 7);
    cases.push_back(make_fragment_graph(c, cuts));
    ASSERT_EQ(cases.back().total_cuts(), 5);
    ASSERT_EQ(cases.back().fragments[0].width(), 6);
  }
  for (const FragmentGraph& graph : cases) {
    SCOPED_TRACE("f1 width " + std::to_string(graph.fragments[0].width()) + ", cuts " +
                 std::to_string(graph.total_cuts()));
    expect_reports_identical(reference_detect_golden_exact(graph, 1e-9),
                             detect_golden_exact(graph, 1e-9));
  }
}

}  // namespace
}  // namespace qcut::cutting
