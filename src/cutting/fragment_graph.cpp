#include "cutting/fragment_graph.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "common/error.hpp"

namespace qcut::cutting {

using circuit::CutAnalysis;
using circuit::FragmentId;
using circuit::WirePoint;

int FragmentGraph::total_cuts() const {
  int total = 0;
  for (const ChainBoundary& boundary : boundaries) total += boundary.num_cuts();
  return total;
}

int FragmentGraph::max_fragment_width() const {
  int widest = 0;
  for (const ChainFragment& fragment : fragments) widest = std::max(widest, fragment.width());
  return widest;
}

namespace {

/// One prefix/suffix split of a (sub)circuit: fragment qubits in ascending
/// order, untouched qubits assigned upstream, circuits rebuilt by appending
/// each side's ops in program order and remapping to local indices.
struct Split {
  Circuit up{1};
  Circuit down{1};
  std::vector<int> up_local_of;    // sub-circuit qubit -> up local (-1 if absent)
  std::vector<int> down_local_of;  // sub-circuit qubit -> down local (-1 if absent)
  std::vector<int> up_to_sub;      // up local -> sub-circuit qubit (ascending)
  std::vector<int> down_to_sub;    // down local -> sub-circuit qubit (ascending)
  std::vector<std::ptrdiff_t> op_to_down;  // sub-circuit op -> down op index (-1 if upstream)
  std::vector<int> cut_qubits;     // sub-circuit qubits, cut order
};

Split split_at(const Circuit& sub, std::span<const WirePoint> cuts, int boundary_index) {
  std::string why;
  const std::optional<CutAnalysis> analysis = circuit::try_analyze_cuts(sub, cuts, &why);
  QCUT_CHECK(analysis.has_value(),
             "make_fragment_chain: boundary " + std::to_string(boundary_index) + ": " + why);

  const int n = sub.num_qubits();
  std::vector<bool> in_up(static_cast<std::size_t>(n), false);
  std::vector<bool> in_down(static_cast<std::size_t>(n), false);
  std::vector<bool> touched(static_cast<std::size_t>(n), false);
  for (std::size_t i = 0; i < sub.num_ops(); ++i) {
    for (int q : sub.op(i).qubits) {
      touched[static_cast<std::size_t>(q)] = true;
      if (analysis->op_fragment[i] == FragmentId::Upstream) {
        in_up[static_cast<std::size_t>(q)] = true;
      } else {
        in_down[static_cast<std::size_t>(q)] = true;
      }
    }
  }
  // Idle qubits contribute a deterministic |0> output bit; they are measured
  // in the first fragment. (Sub-circuits below the first split have no idle
  // qubits: every suffix qubit carries at least one downstream op.)
  for (int q = 0; q < n; ++q) {
    if (!touched[static_cast<std::size_t>(q)]) in_up[static_cast<std::size_t>(q)] = true;
  }

  Split split;
  split.up_local_of.assign(static_cast<std::size_t>(n), -1);
  split.down_local_of.assign(static_cast<std::size_t>(n), -1);
  for (int q = 0; q < n; ++q) {
    if (in_up[static_cast<std::size_t>(q)]) {
      split.up_local_of[static_cast<std::size_t>(q)] = static_cast<int>(split.up_to_sub.size());
      split.up_to_sub.push_back(q);
    }
  }
  for (int q = 0; q < n; ++q) {
    if (in_down[static_cast<std::size_t>(q)]) {
      split.down_local_of[static_cast<std::size_t>(q)] =
          static_cast<int>(split.down_to_sub.size());
      split.down_to_sub.push_back(q);
    }
  }
  QCUT_CHECK(!split.up_to_sub.empty() && !split.down_to_sub.empty(),
             "make_fragment_chain: boundary " + std::to_string(boundary_index) +
                 ": both sides must contain at least one qubit");

  for (int cut_qubit : analysis->cut_qubits) {
    QCUT_ASSERT(in_up[static_cast<std::size_t>(cut_qubit)] &&
                    in_down[static_cast<std::size_t>(cut_qubit)],
                "make_fragment_chain: cut qubit missing from a side");
    split.cut_qubits.push_back(cut_qubit);
  }

  Circuit up(n);
  Circuit down(n);
  split.op_to_down.assign(sub.num_ops(), -1);
  for (std::size_t i = 0; i < sub.num_ops(); ++i) {
    const circuit::Operation& op = sub.op(i);
    Circuit& side = analysis->op_fragment[i] == FragmentId::Upstream ? up : down;
    if (analysis->op_fragment[i] == FragmentId::Downstream) {
      split.op_to_down[i] = static_cast<std::ptrdiff_t>(down.num_ops());
    }
    if (op.kind == circuit::GateKind::Custom) {
      side.append_custom(op.custom, op.qubits, op.label);
    } else {
      side.append(op.kind, op.qubits, op.params);
    }
  }
  split.up = up.remapped(split.up_local_of, static_cast<int>(split.up_to_sub.size()));
  split.down = down.remapped(split.down_local_of, static_cast<int>(split.down_to_sub.size()));
  return split;
}

/// Final-bit bookkeeping: every local that is not an outgoing tomography
/// qubit is a final bit of the uncut circuit.
void finish_fragment(ChainFragment& fragment) {
  std::vector<bool> is_cut(static_cast<std::size_t>(fragment.width()), false);
  for (int local : fragment.out_cut_qubits) is_cut[static_cast<std::size_t>(local)] = true;
  for (int local = 0; local < fragment.width(); ++local) {
    if (!is_cut[static_cast<std::size_t>(local)]) {
      fragment.output_qubits.push_back(local);
      fragment.output_original.push_back(fragment.to_original[static_cast<std::size_t>(local)]);
    }
  }
}

}  // namespace

FragmentGraph make_fragment_chain(const Circuit& circuit,
                                  std::span<const std::vector<WirePoint>> boundaries) {
  QCUT_CHECK(!boundaries.empty(), "make_fragment_chain: need at least one boundary");
  for (std::size_t b = 0; b < boundaries.size(); ++b) {
    QCUT_CHECK(!boundaries[b].empty(), "make_fragment_chain: boundary " + std::to_string(b) +
                                           " has no cut points");
  }

  FragmentGraph graph;
  graph.num_original_qubits = circuit.num_qubits();

  // The not-yet-split tail of the chain, with maps from original-circuit
  // coordinates into it (boundary points are given in original coordinates).
  Circuit suffix = circuit;
  std::vector<int> suffix_to_original(static_cast<std::size_t>(circuit.num_qubits()));
  std::vector<int> qubit_to_suffix(static_cast<std::size_t>(circuit.num_qubits()));
  for (int q = 0; q < circuit.num_qubits(); ++q) {
    suffix_to_original[static_cast<std::size_t>(q)] = q;
    qubit_to_suffix[static_cast<std::size_t>(q)] = q;
  }
  std::vector<std::ptrdiff_t> op_to_suffix(circuit.num_ops());
  for (std::size_t i = 0; i < circuit.num_ops(); ++i) {
    op_to_suffix[i] = static_cast<std::ptrdiff_t>(i);
  }

  // Cut wires of the previous boundary, waiting for their down_qubit (the
  // local index in the fragment about to be carved out of the suffix).
  std::vector<int> pending_in_original;  // original qubits, previous-boundary cut order

  for (std::size_t b = 0; b < boundaries.size(); ++b) {
    std::vector<WirePoint> mapped;
    mapped.reserve(boundaries[b].size());
    for (const WirePoint& point : boundaries[b]) {
      QCUT_CHECK(point.qubit >= 0 && point.qubit < circuit.num_qubits(),
                 "make_fragment_chain: boundary " + std::to_string(b) +
                     " cut qubit out of range");
      QCUT_CHECK(point.after_op < circuit.num_ops(),
                 "make_fragment_chain: boundary " + std::to_string(b) +
                     " cut op index out of range");
      const int suffix_qubit = qubit_to_suffix[static_cast<std::size_t>(point.qubit)];
      const std::ptrdiff_t suffix_op = op_to_suffix[point.after_op];
      QCUT_CHECK(suffix_qubit >= 0 && suffix_op >= 0,
                 "make_fragment_chain: boundary " + std::to_string(b) +
                     " cuts inside an earlier fragment (boundaries must be ordered "
                     "front to back along the circuit)");
      mapped.push_back(WirePoint{suffix_qubit, static_cast<std::size_t>(suffix_op)});
    }

    Split split = split_at(suffix, mapped, static_cast<int>(b));

    ChainFragment fragment;
    fragment.circuit = std::move(split.up);
    for (int sub : split.up_to_sub) {
      fragment.to_original.push_back(suffix_to_original[static_cast<std::size_t>(sub)]);
    }

    // Previous boundary's wires are re-prepared here — a wire first touched
    // in a later fragment would skip this one, which a chain cannot express.
    for (std::size_t w = 0; w < pending_in_original.size(); ++w) {
      const int original = pending_in_original[w];
      const int sub = qubit_to_suffix[static_cast<std::size_t>(original)];
      const int local = split.up_local_of[static_cast<std::size_t>(sub)];
      QCUT_CHECK(local >= 0,
                 "make_fragment_chain: cut wire on qubit " + std::to_string(original) +
                     " of boundary " + std::to_string(b - 1) + " is re-prepared in a later "
                     "fragment; wires must connect adjacent fragments (chain topology)");
      fragment.in_qubits.push_back(local);
      graph.boundaries[b - 1].wires[w].down_qubit = local;
    }

    ChainBoundary boundary;
    boundary.points = boundaries[b];
    for (int sub_qubit : split.cut_qubits) {
      BoundaryWire wire;
      wire.original_qubit = suffix_to_original[static_cast<std::size_t>(sub_qubit)];
      wire.up_qubit = split.up_local_of[static_cast<std::size_t>(sub_qubit)];
      wire.down_qubit = -1;  // filled when the next fragment is carved out
      fragment.out_cut_qubits.push_back(wire.up_qubit);
      boundary.wires.push_back(wire);
    }
    finish_fragment(fragment);
    graph.fragments.push_back(std::move(fragment));
    graph.boundaries.push_back(std::move(boundary));

    pending_in_original.clear();
    for (const BoundaryWire& wire : graph.boundaries.back().wires) {
      pending_in_original.push_back(wire.original_qubit);
    }

    // Re-anchor the original-coordinate maps on the new suffix.
    std::vector<int> next_to_original;
    for (int sub : split.down_to_sub) {
      next_to_original.push_back(suffix_to_original[static_cast<std::size_t>(sub)]);
    }
    std::vector<int> next_qubit_to_suffix(static_cast<std::size_t>(circuit.num_qubits()), -1);
    for (std::size_t local = 0; local < next_to_original.size(); ++local) {
      next_qubit_to_suffix[static_cast<std::size_t>(next_to_original[local])] =
          static_cast<int>(local);
    }
    std::vector<std::ptrdiff_t> next_op_to_suffix(circuit.num_ops(), -1);
    for (std::size_t i = 0; i < circuit.num_ops(); ++i) {
      if (op_to_suffix[i] >= 0) {
        next_op_to_suffix[i] = split.op_to_down[static_cast<std::size_t>(op_to_suffix[i])];
      }
    }
    suffix = std::move(split.down);
    suffix_to_original = std::move(next_to_original);
    qubit_to_suffix = std::move(next_qubit_to_suffix);
    op_to_suffix = std::move(next_op_to_suffix);
  }

  // The remaining suffix is the last fragment.
  ChainFragment last;
  last.circuit = std::move(suffix);
  last.to_original = std::move(suffix_to_original);
  for (std::size_t w = 0; w < pending_in_original.size(); ++w) {
    const int local = qubit_to_suffix[static_cast<std::size_t>(pending_in_original[w])];
    QCUT_ASSERT(local >= 0, "make_fragment_chain: lost a cut wire of the final boundary");
    last.in_qubits.push_back(local);
    graph.boundaries.back().wires[w].down_qubit = local;
  }
  finish_fragment(last);
  graph.fragments.push_back(std::move(last));
  return graph;
}

FragmentGraph make_fragment_graph(const Circuit& circuit, std::span<const WirePoint> cuts) {
  const std::vector<std::vector<WirePoint>> boundaries = {
      std::vector<WirePoint>(cuts.begin(), cuts.end())};
  return make_fragment_chain(circuit, boundaries);
}

ChainNeglectSpec ChainNeglectSpec::none(const FragmentGraph& graph) {
  std::vector<NeglectSpec> specs;
  specs.reserve(static_cast<std::size_t>(graph.num_boundaries()));
  for (const ChainBoundary& boundary : graph.boundaries) {
    specs.push_back(NeglectSpec::none(boundary.num_cuts()));
  }
  return ChainNeglectSpec(std::move(specs));
}

ChainNeglectSpec::ChainNeglectSpec(std::vector<NeglectSpec> boundary_specs)
    : boundaries_(std::move(boundary_specs)) {}

const NeglectSpec& ChainNeglectSpec::boundary(int b) const {
  QCUT_CHECK(b >= 0 && b < num_boundaries(),
             "ChainNeglectSpec::boundary: index out of range");
  return boundaries_[static_cast<std::size_t>(b)];
}

NeglectSpec& ChainNeglectSpec::boundary(int b) {
  QCUT_CHECK(b >= 0 && b < num_boundaries(),
             "ChainNeglectSpec::boundary: index out of range");
  return boundaries_[static_cast<std::size_t>(b)];
}

std::uint64_t ChainNeglectSpec::num_active_terms() const {
  std::uint64_t total = 1;
  for (const NeglectSpec& spec : boundaries_) total *= spec.num_active_strings();
  return total;
}

}  // namespace qcut::cutting
