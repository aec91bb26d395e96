#pragma once
// Enumeration of the circuit variants each fragment must execute.
//
// In an N-fragment chain, fragment f prepends a preparation per incoming
// cut wire (one of 6^Kin prep tuples) and appends a basis rotation per
// outgoing cut wire (one of 3^Kout setting tuples); its variant set is the
// cross product of the prep tuples the incoming boundary's active strings
// need and the setting tuples the outgoing boundary's need. Given
// per-boundary NeglectSpecs, only those required tuples are generated -
// this is where golden cutting points save circuit evaluations (9 -> 6 per
// single-cut boundary), and the savings multiply along the chain. In the
// paper's two-fragment split, fragment 0's variants are the upstream
// measurement settings and fragment 1's the downstream preparations.

#include <cstdint>
#include <span>
#include <vector>

#include "cutting/basis.hpp"
#include "cutting/fragment_graph.hpp"
#include "cutting/golden.hpp"

namespace qcut::cutting {

/// Setting tuple codes required by the active basis strings (sorted).
[[nodiscard]] std::vector<std::uint32_t> required_setting_indices(const NeglectSpec& spec);

/// Prep tuple codes required by the active basis strings (sorted).
[[nodiscard]] std::vector<std::uint32_t> required_prep_indices(const NeglectSpec& spec);

/// Total circuit evaluations of a two-fragment cut (upstream settings +
/// downstream preparations) under a spec.
struct VariantCounts {
  std::size_t upstream = 0;
  std::size_t downstream = 0;
  [[nodiscard]] std::size_t total() const noexcept { return upstream + downstream; }
};
[[nodiscard]] VariantCounts count_variants(const NeglectSpec& spec);

// ---- Chain (N-fragment) variants --------------------------------------------

/// One fragment's variant identity: incoming prep tuple (base 6 over Kin,
/// 0 for the first fragment) and outgoing setting tuple (base 3 over Kout,
/// 0 for the last fragment).
struct FragmentVariantKey {
  std::uint32_t prep_index = 0;
  std::uint32_t setting_index = 0;

  friend bool operator==(const FragmentVariantKey&, const FragmentVariantKey&) = default;
};

/// Packed total order (prep major, setting minor); map key and sort key.
[[nodiscard]] constexpr std::uint64_t pack_variant_key(FragmentVariantKey key) noexcept {
  return (static_cast<std::uint64_t>(key.prep_index) << 32) | key.setting_index;
}

struct FragmentVariant {
  FragmentVariantKey key;
  std::vector<PrepState> preps;       // per incoming cut, boundary cut order
  std::vector<MeasSetting> settings;  // per outgoing cut, boundary cut order
  Circuit circuit{1};                 // preparations + fragment + rotations
};

/// Variant keys fragment `fragment` must execute under per-boundary specs:
/// the cross product of the incoming boundary's required prep tuples and
/// the outgoing boundary's required setting tuples, ascending in packed
/// order. For the N=2 chain this reduces to required_setting_indices
/// (fragment 0) and required_prep_indices (fragment 1).
[[nodiscard]] std::vector<FragmentVariantKey> required_fragment_variants(
    const FragmentGraph& graph, int fragment, const ChainNeglectSpec& spec);

/// Builds one variant circuit of one fragment.
[[nodiscard]] FragmentVariant make_fragment_variant(const FragmentGraph& graph, int fragment,
                                                    FragmentVariantKey key);

// ---- Shared-prefix grouping -------------------------------------------------

/// A set of circuits sharing their first `prefix_ops` operations verbatim
/// (circuit::same_operation, equal widths). Mirrors backend::BatchPrefixGroup
/// but lives here because the grouping is a property of the variant set,
/// not of any backend.
struct PrefixGroup {
  std::size_t prefix_ops = 0;
  std::vector<std::size_t> members;  // indices into the input span
};

/// Partitions `circuits` into shared-prefix groups (every index appears in
/// exactly one group; singletons included). The grouping is a general
/// longest-common-prefix clustering, not a cut-specific rule: circuits are
/// ordered lexicographically by operation sequence, then greedily merged
/// while the saved prefix work outweighs what shrinking the group's shared
/// prefix costs its existing members. For a cut fragment's variant set this
/// recovers exactly the prep-tuple structure — all 3^Kout setting variants
/// of one prep tuple share "preparations + body" and differ only in
/// trailing basis rotations — but it applies equally to deduped variants of
/// unrelated jobs batched together by the service. Deterministic in the
/// input (no pointer-order dependence).
[[nodiscard]] std::vector<PrefixGroup> group_by_shared_prefix(
    std::span<const Circuit* const> circuits);

/// Circuit evaluations per fragment under per-boundary specs.
struct ChainVariantCounts {
  std::vector<std::size_t> per_fragment;
  [[nodiscard]] std::size_t total() const noexcept {
    std::size_t sum = 0;
    for (std::size_t count : per_fragment) sum += count;
    return sum;
  }
};
[[nodiscard]] ChainVariantCounts count_chain_variants(const FragmentGraph& graph,
                                                      const ChainNeglectSpec& spec);

}  // namespace qcut::cutting
