// FragmentGraph construction: chain splitting, the two-fragment split of
// Section II-B (make_fragment_graph), and rejection of non-chain topologies.

#include "cutting/fragment_graph.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <span>

#include "common/error.hpp"

namespace qcut::cutting {
namespace {

using circuit::WirePoint;

/// 5 qubits, 3 fragments: {0,1} -q1-> {1,2,3} -q3-> {3,4}.
Circuit chain5() {
  Circuit c(5);
  c.h(0).cx(0, 1).ry(0.3, 1);      // ops 0-2, fragment 0
  c.cx(1, 2).ry(0.5, 2).cx(2, 3);  // ops 3-5, fragment 1
  c.ry(0.7, 3).cx(3, 4).ry(0.2, 4);  // ops 6-8, fragment 2
  return c;
}

std::vector<std::vector<WirePoint>> chain5_boundaries() {
  return {{WirePoint{1, 2}}, {WirePoint{3, 5}}};
}

TEST(FragmentGraph, ThreeFragmentChainStructure) {
  const FragmentGraph graph = make_fragment_chain(chain5(), chain5_boundaries());

  ASSERT_EQ(graph.num_fragments(), 3);
  ASSERT_EQ(graph.num_boundaries(), 2);
  EXPECT_EQ(graph.num_original_qubits, 5);
  EXPECT_EQ(graph.total_cuts(), 2);
  EXPECT_EQ(graph.max_fragment_width(), 3);

  const ChainFragment& f0 = graph.fragments[0];
  const ChainFragment& f1 = graph.fragments[1];
  const ChainFragment& f2 = graph.fragments[2];
  EXPECT_EQ(f0.to_original, (std::vector<int>{0, 1}));
  EXPECT_EQ(f1.to_original, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(f2.to_original, (std::vector<int>{3, 4}));

  // Fragment 0 measures its cut wire tomographically; q0 is a final bit.
  EXPECT_EQ(f0.in_qubits, (std::vector<int>{}));
  EXPECT_EQ(f0.out_cut_qubits, (std::vector<int>{1}));
  EXPECT_EQ(f0.output_original, (std::vector<int>{0}));

  // Fragment 1 re-prepares q1, measures q3 tomographically; q1, q2 final.
  EXPECT_EQ(f1.in_qubits, (std::vector<int>{0}));
  EXPECT_EQ(f1.out_cut_qubits, (std::vector<int>{2}));
  EXPECT_EQ(f1.output_original, (std::vector<int>{1, 2}));

  // Fragment 2 re-prepares q3; everything is a final bit.
  EXPECT_EQ(f2.in_qubits, (std::vector<int>{0}));
  EXPECT_EQ(f2.out_cut_qubits, (std::vector<int>{}));
  EXPECT_EQ(f2.output_original, (std::vector<int>{3, 4}));

  // Boundary wires in all three coordinate systems.
  EXPECT_EQ(graph.boundaries[0].wires[0].original_qubit, 1);
  EXPECT_EQ(graph.boundaries[0].wires[0].up_qubit, 1);
  EXPECT_EQ(graph.boundaries[0].wires[0].down_qubit, 0);
  EXPECT_EQ(graph.boundaries[1].wires[0].original_qubit, 3);
  EXPECT_EQ(graph.boundaries[1].wires[0].up_qubit, 2);
  EXPECT_EQ(graph.boundaries[1].wires[0].down_qubit, 0);

  // Every original qubit is a final bit of exactly one fragment.
  std::vector<int> seen;
  for (const ChainFragment& fragment : graph.fragments) {
    seen.insert(seen.end(), fragment.output_original.begin(),
                fragment.output_original.end());
  }
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(seen, (std::vector<int>{0, 1, 2, 3, 4}));

  // Fragment circuits carry their ops.
  EXPECT_EQ(f0.circuit.num_ops(), 3u);
  EXPECT_EQ(f1.circuit.num_ops(), 3u);
  EXPECT_EQ(f2.circuit.num_ops(), 3u);
}

TEST(FragmentGraph, FragmentSkippingWireIsRejected) {
  // q0 runs from fragment 0 straight into fragment 2 with no ops in
  // fragment 1: not expressible as a chain.
  Circuit c(4);
  c.h(0).cx(0, 1);             // ops 0-1, fragment 0 on {0,1}
  c.cx(1, 2).ry(0.4, 2);       // ops 2-3, fragment 1 on {1,2}
  c.cx(2, 3).cx(0, 3);         // ops 4-5, fragment 2 wants q0 again
  const std::vector<std::vector<WirePoint>> boundaries = {
      {WirePoint{1, 1}, WirePoint{0, 1}},  // cut q1 and q0 after op 1
      {WirePoint{2, 3}},
  };
  EXPECT_THROW((void)make_fragment_chain(c, boundaries), Error);
}

TEST(FragmentGraph, OutOfOrderBoundariesAreRejected) {
  const Circuit c = chain5();
  auto boundaries = chain5_boundaries();
  std::swap(boundaries[0], boundaries[1]);
  EXPECT_THROW((void)make_fragment_chain(c, boundaries), Error);
}

TEST(FragmentGraph, SingleBoundaryDetectorsRequireTwoFragments) {
  const FragmentGraph graph = make_fragment_chain(chain5(), chain5_boundaries());
  EXPECT_THROW((void)detect_golden_exact(graph), Error);
  EXPECT_THROW((void)detect_golden_from_counts(graph, {}, 100), Error);
}

TEST(FragmentGraph, ChainNeglectSpecCountsTerms) {
  const FragmentGraph graph = make_fragment_chain(chain5(), chain5_boundaries());
  ChainNeglectSpec spec = ChainNeglectSpec::none(graph);
  ASSERT_EQ(spec.num_boundaries(), 2);
  EXPECT_EQ(spec.num_active_terms(), 16u);  // 4 x 4
  spec.boundary(0).neglect(0, Pauli::Y);
  EXPECT_EQ(spec.num_active_terms(), 12u);  // 3 x 4
  spec.boundary(1).neglect(0, Pauli::Y);
  EXPECT_EQ(spec.num_active_terms(), 9u);   // 3 x 3
}

/// The paper's 3-qubit example: U12 on (0,1), cut wire 1, U23 on (1,2).
Circuit chain3() {
  Circuit c(3);
  c.cx(0, 1);    // op 0 upstream
  c.ry(0.4, 1);  // op 1 upstream
  c.cx(1, 2);    // op 2 downstream
  c.h(2);        // op 3 downstream
  return c;
}

TEST(TwoFragmentGraph, ThreeQubitChain) {
  const std::array<WirePoint, 1> cuts = {WirePoint{1, 1}};
  const FragmentGraph graph = make_fragment_graph(chain3(), cuts);
  ASSERT_EQ(graph.num_fragments(), 2);
  const ChainFragment& f1 = graph.fragments[0];
  const ChainFragment& f2 = graph.fragments[1];

  EXPECT_EQ(graph.num_original_qubits, 3);
  EXPECT_EQ(graph.total_cuts(), 1);
  EXPECT_EQ(f1.width(), 2);
  EXPECT_EQ(f2.width(), 2);
  EXPECT_EQ(f1.to_original, (std::vector<int>{0, 1}));
  EXPECT_EQ(f2.to_original, (std::vector<int>{1, 2}));

  ASSERT_EQ(graph.boundaries[0].wires.size(), 1u);
  EXPECT_EQ(graph.boundaries[0].wires[0].original_qubit, 1);
  EXPECT_EQ(graph.boundaries[0].wires[0].up_qubit, 1);
  EXPECT_EQ(graph.boundaries[0].wires[0].down_qubit, 0);

  EXPECT_EQ(f1.output_qubits, (std::vector<int>{0}));
  EXPECT_EQ(f1.output_width(), 1);
  EXPECT_EQ(f1.out_cut_qubits, (std::vector<int>{1}));
  EXPECT_EQ(f2.in_qubits, (std::vector<int>{0}));

  // Fragment circuits carry the right ops.
  EXPECT_EQ(f1.circuit.num_ops(), 2u);
  EXPECT_EQ(f1.circuit.op(0).kind, circuit::GateKind::CX);
  EXPECT_EQ(f1.circuit.op(0).qubits, (std::vector<int>{0, 1}));
  EXPECT_EQ(f2.circuit.num_ops(), 2u);
  EXPECT_EQ(f2.circuit.op(0).kind, circuit::GateKind::CX);
  EXPECT_EQ(f2.circuit.op(0).qubits, (std::vector<int>{0, 1}));  // remapped 1->0, 2->1
}

TEST(TwoFragmentGraph, FiveQubitMiddleCut) {
  // 5-qubit circuit cut on the middle wire: 3 + 3 fragments like the paper.
  Circuit c(5);
  c.h(0).cx(0, 1).cx(1, 2).ry(0.3, 2);  // upstream {0,1,2}
  c.cx(2, 3).cx(3, 4).rz(0.7, 4);       // downstream {2,3,4}
  const std::array<WirePoint, 1> cuts = {WirePoint{2, 3}};
  const FragmentGraph graph = make_fragment_graph(c, cuts);
  EXPECT_EQ(graph.fragments[0].width(), 3);
  EXPECT_EQ(graph.fragments[1].width(), 3);
  EXPECT_EQ(graph.fragments[0].to_original, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(graph.fragments[1].to_original, (std::vector<int>{2, 3, 4}));
  EXPECT_EQ(graph.fragments[0].output_qubits, (std::vector<int>{0, 1}));
}

TEST(TwoFragmentGraph, IdleQubitGoesUpstream) {
  Circuit c(4);
  c.cx(0, 1).ry(0.2, 1).cx(1, 2);  // qubit 3 idle
  const std::array<WirePoint, 1> cuts = {WirePoint{1, 1}};
  const FragmentGraph graph = make_fragment_graph(c, cuts);
  EXPECT_EQ(graph.fragments[0].to_original, (std::vector<int>{0, 1, 3}));
  EXPECT_EQ(graph.fragments[1].to_original, (std::vector<int>{1, 2}));
  // Idle qubit 3 is an f1 output.
  EXPECT_EQ(graph.fragments[0].output_qubits, (std::vector<int>{0, 2}));
}

TEST(TwoFragmentGraph, TwoCutsSharedDownstream) {
  Circuit c(4);
  c.h(0).cx(0, 1);  // block A
  c.h(3).cx(3, 2);  // block B
  c.cx(1, 2);       // downstream
  const std::array<WirePoint, 2> cuts = {WirePoint{1, 1}, WirePoint{2, 3}};
  const FragmentGraph graph = make_fragment_graph(c, cuts);
  EXPECT_EQ(graph.total_cuts(), 2);
  EXPECT_EQ(graph.fragments[0].to_original, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(graph.fragments[1].to_original, (std::vector<int>{1, 2}));
  EXPECT_EQ(graph.fragments[0].output_qubits, (std::vector<int>{0, 3}));
  EXPECT_EQ(graph.fragments[0].out_cut_qubits, (std::vector<int>{1, 2}));
  EXPECT_EQ(graph.fragments[1].in_qubits, (std::vector<int>{0, 1}));
}

TEST(TwoFragmentGraph, CutOrderIsPreserved) {
  Circuit c(4);
  c.h(0).cx(0, 1);
  c.h(3).cx(3, 2);
  c.cx(1, 2);
  // Same cuts, reversed order: the wires must follow the caller's order.
  const std::array<WirePoint, 2> cuts = {WirePoint{2, 3}, WirePoint{1, 1}};
  const FragmentGraph graph = make_fragment_graph(c, cuts);
  EXPECT_EQ(graph.boundaries[0].wires[0].original_qubit, 2);
  EXPECT_EQ(graph.boundaries[0].wires[1].original_qubit, 1);
}

TEST(TwoFragmentGraph, InvalidCutsThrow) {
  const Circuit c = chain3();
  // Cut after final op on the wire.
  EXPECT_THROW((void)make_fragment_graph(c, std::array<WirePoint, 1>{WirePoint{2, 3}}), Error);
  // Op not acting on the qubit.
  EXPECT_THROW((void)make_fragment_graph(c, std::array<WirePoint, 1>{WirePoint{0, 2}}), Error);
  // Empty cut list.
  EXPECT_THROW((void)make_fragment_graph(c, std::span<const WirePoint>{}), Error);
}

TEST(TwoFragmentGraph, CustomGatesSurviveFragmentation) {
  Circuit c(3);
  c.append_custom(linalg::CMat::identity(4), {0, 1}, "U1");
  c.ry(0.5, 1);
  c.append_custom(linalg::CMat::identity(4), {1, 2}, "U2");
  const std::array<WirePoint, 1> cuts = {WirePoint{1, 1}};
  const FragmentGraph graph = make_fragment_graph(c, cuts);
  EXPECT_EQ(graph.fragments[0].circuit.op(0).label, "U1");
  EXPECT_EQ(graph.fragments[1].circuit.op(0).label, "U2");
}

}  // namespace
}  // namespace qcut::cutting
