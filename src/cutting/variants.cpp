#include "cutting/variants.hpp"

#include <algorithm>
#include <bit>
#include <numeric>
#include <set>

#include "common/error.hpp"

namespace qcut::cutting {

std::vector<std::uint32_t> required_setting_indices(const NeglectSpec& spec) {
  std::set<std::uint32_t> indices;
  for (const std::vector<Pauli>& basis : spec.active_strings()) {
    indices.insert(settings_index_for_basis(basis));
  }
  return {indices.begin(), indices.end()};
}

std::vector<std::uint32_t> required_prep_indices(const NeglectSpec& spec) {
  std::set<std::uint32_t> indices;
  const std::uint32_t slot_count = static_cast<std::uint32_t>(1) << spec.num_cuts();
  for (const std::vector<Pauli>& basis : spec.active_strings()) {
    for (std::uint32_t slots = 0; slots < slot_count; ++slots) {
      indices.insert(preps_index_for_basis(basis, slots));
    }
  }
  return {indices.begin(), indices.end()};
}

VariantCounts count_variants(const NeglectSpec& spec) {
  return VariantCounts{required_setting_indices(spec).size(),
                       required_prep_indices(spec).size()};
}

std::vector<FragmentVariantKey> required_fragment_variants(const FragmentGraph& graph,
                                                           int fragment,
                                                           const ChainNeglectSpec& spec) {
  QCUT_CHECK(fragment >= 0 && fragment < graph.num_fragments(),
             "required_fragment_variants: fragment index out of range");
  QCUT_CHECK(spec.num_boundaries() == graph.num_boundaries(),
             "required_fragment_variants: spec boundary count must match the graph");

  const std::vector<std::uint32_t> preps =
      fragment > 0 ? required_prep_indices(spec.boundary(fragment - 1))
                   : std::vector<std::uint32_t>{0};
  const std::vector<std::uint32_t> settings =
      fragment < graph.num_boundaries() ? required_setting_indices(spec.boundary(fragment))
                                        : std::vector<std::uint32_t>{0};

  std::vector<FragmentVariantKey> keys;
  keys.reserve(preps.size() * settings.size());
  for (std::uint32_t prep : preps) {
    for (std::uint32_t setting : settings) {
      keys.push_back(FragmentVariantKey{prep, setting});
    }
  }
  return keys;
}

FragmentVariant make_fragment_variant(const FragmentGraph& graph, int fragment,
                                      FragmentVariantKey key) {
  QCUT_CHECK(fragment >= 0 && fragment < graph.num_fragments(),
             "make_fragment_variant: fragment index out of range");
  const ChainFragment& frag = graph.fragments[static_cast<std::size_t>(fragment)];

  FragmentVariant variant;
  variant.key = key;
  variant.preps = decode_preps(key.prep_index, frag.num_in());
  variant.settings = decode_settings(key.setting_index, frag.num_out());

  Circuit circuit(frag.width());
  for (int k = 0; k < frag.num_in(); ++k) {
    append_preparation(circuit, frag.in_qubits[static_cast<std::size_t>(k)],
                       variant.preps[static_cast<std::size_t>(k)]);
  }
  circuit.compose(frag.circuit);
  for (int k = 0; k < frag.num_out(); ++k) {
    append_basis_rotation(circuit, frag.out_cut_qubits[static_cast<std::size_t>(k)],
                          variant.settings[static_cast<std::size_t>(k)]);
  }
  variant.circuit = std::move(circuit);
  return variant;
}

namespace {

using circuit::Operation;

int compare_u64(std::uint64_t a, std::uint64_t b) noexcept {
  return a < b ? -1 : (a > b ? 1 : 0);
}

/// Total order over doubles by bit pattern (matches the equality notion of
/// circuit::same_operation, and stays a strict weak order for any value).
int compare_double_bits(double a, double b) noexcept {
  return compare_u64(std::bit_cast<std::uint64_t>(a), std::bit_cast<std::uint64_t>(b));
}

/// Three-way order consistent with circuit::same_operation equality.
int compare_operation(const Operation& a, const Operation& b) noexcept {
  if (a.kind != b.kind) return static_cast<int>(a.kind) < static_cast<int>(b.kind) ? -1 : 1;
  if (a.qubits != b.qubits) return a.qubits < b.qubits ? -1 : 1;
  if (int c = compare_u64(a.params.size(), b.params.size()); c != 0) return c;
  for (std::size_t i = 0; i < a.params.size(); ++i) {
    if (int c = compare_double_bits(a.params[i], b.params[i]); c != 0) return c;
  }
  if (a.kind == circuit::GateKind::Custom) {
    if (int c = compare_u64(a.custom.rows(), b.custom.rows()); c != 0) return c;
    if (int c = compare_u64(a.custom.cols(), b.custom.cols()); c != 0) return c;
    for (std::size_t r = 0; r < a.custom.rows(); ++r) {
      for (std::size_t col = 0; col < a.custom.cols(); ++col) {
        if (int c = compare_double_bits(a.custom(r, col).real(), b.custom(r, col).real());
            c != 0) {
          return c;
        }
        if (int c = compare_double_bits(a.custom(r, col).imag(), b.custom(r, col).imag());
            c != 0) {
          return c;
        }
      }
    }
  }
  return 0;
}

}  // namespace

std::vector<PrefixGroup> group_by_shared_prefix(std::span<const Circuit* const> circuits) {
  std::vector<std::size_t> order(circuits.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  // Lexicographic op-sequence order puts circuits with long common prefixes
  // next to each other, so one linear sweep finds the clusters.
  std::sort(order.begin(), order.end(), [&](std::size_t x, std::size_t y) {
    const Circuit& a = *circuits[x];
    const Circuit& b = *circuits[y];
    if (a.num_qubits() != b.num_qubits()) return a.num_qubits() < b.num_qubits();
    const std::size_t limit = std::min(a.num_ops(), b.num_ops());
    for (std::size_t i = 0; i < limit; ++i) {
      if (int c = compare_operation(a.ops()[i], b.ops()[i]); c != 0) return c < 0;
    }
    if (a.num_ops() != b.num_ops()) return a.num_ops() < b.num_ops();
    return x < y;
  });

  std::vector<PrefixGroup> groups;
  for (std::size_t idx : order) {
    const Circuit& c = *circuits[idx];
    if (!groups.empty()) {
      PrefixGroup& g = groups.back();
      const std::size_t common =
          std::min(circuit::common_prefix_ops(*circuits[g.members.front()], c), g.prefix_ops);
      // Admit when the group's shared prefix is kept whole, or when the new
      // member's shared work exceeds the suffix work shrinking the prefix
      // adds to every existing member. Simulating a shared prefix once
      // saves ~`common` ops per member, so any common >= 1 can pay for one
      // state fork, but never let a near-stranger collapse a deep prefix.
      const bool worthwhile =
          common >= 1 &&
          (common == g.prefix_ops || (g.prefix_ops - common) * g.members.size() <= common);
      if (worthwhile) {
        g.prefix_ops = common;
        g.members.push_back(idx);
        continue;
      }
    }
    groups.push_back(PrefixGroup{c.num_ops(), {idx}});
  }
  return groups;
}

ChainVariantCounts count_chain_variants(const FragmentGraph& graph,
                                        const ChainNeglectSpec& spec) {
  ChainVariantCounts counts;
  counts.per_fragment.reserve(static_cast<std::size_t>(graph.num_fragments()));
  for (int f = 0; f < graph.num_fragments(); ++f) {
    counts.per_fragment.push_back(required_fragment_variants(graph, f, spec).size());
  }
  return counts;
}

}  // namespace qcut::cutting
