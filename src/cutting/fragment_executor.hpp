#pragma once
// Fragment execution: running every required variant of every fragment on a
// backend, in parallel, and collecting the outcome distributions
// (execute_chain), or collecting counts executed elsewhere (ingest_counts).

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "backend/backend.hpp"
#include "cutting/variants.hpp"
#include "parallel/thread_pool.hpp"

namespace qcut::cutting {

/// Seed-stream layout shared by every execution path (direct and service):
/// fragment f draws from the block base + f * kDownstreamSeedStreamOffset,
/// at sub-index prep_index * 3^Kout + setting_index. For a two-fragment cut
/// that puts upstream variants at base + setting_index and downstream
/// variants at base + kDownstreamSeedStreamOffset + prep_index. The offset
/// keeps the blocks disjoint for any realistic per-boundary cut count.
inline constexpr std::uint64_t kDownstreamSeedStreamOffset = 1u << 20;

/// Base of fragment f's seed-stream block.
[[nodiscard]] constexpr std::uint64_t fragment_seed_offset(int fragment) noexcept {
  return static_cast<std::uint64_t>(fragment) * kDownstreamSeedStreamOffset;
}

/// Sub-index of a variant within its fragment's seed block.
[[nodiscard]] std::uint64_t variant_seed_index(const FragmentGraph& graph, int fragment,
                                               FragmentVariantKey key);

struct ExecutionOptions {
  /// Shots per circuit variant (ignored in exact mode and when
  /// total_shot_budget is set).
  std::size_t shots_per_variant = 1000;

  /// When nonzero, a TOTAL shot budget split evenly across the required
  /// variants (remainder given to the earliest variants). Under a fixed
  /// budget a golden cut concentrates the same shots on fewer variants,
  /// reducing the estimator variance at equal cost.
  std::size_t total_shot_budget = 0;

  /// Use Backend::exact_probabilities instead of sampling (noise-free
  /// reference pipeline; used by the correctness tests).
  bool exact = false;

  /// Pool for concurrent variant execution; nullptr selects the global pool.
  parallel::ThreadPool* pool = nullptr;

  /// Base of the deterministic seed-stream block used for this execution.
  std::uint64_t seed_stream_base = 0;

  /// Group variant circuits by longest common prefix and execute each group
  /// through Backend::run_batch, so backends with a native batch path (the
  /// statevector simulator) simulate each shared body once — one full
  /// simulation per prep tuple instead of per variant — and fork cheap
  /// suffixes for the 3^Kout trailing-rotation variants. Results are
  /// bit-for-bit identical either way (the run_batch determinism contract);
  /// disable only to time or test the per-variant reference path.
  bool prefix_batching = true;
};

/// Per-variant shot plan shared by every execution path: a fixed per-variant
/// count, or an even split of `total_shot_budget` with the remainder going to
/// the earliest variants. In exact mode the plan is all-`shots_per_variant`
/// but unused. Throws when a nonzero budget cannot cover one shot per
/// variant.
[[nodiscard]] std::vector<std::size_t> plan_variant_shots(std::size_t shots_per_variant,
                                                          std::size_t total_shot_budget,
                                                          bool exact,
                                                          std::size_t num_variants);

/// The measured per-fragment data the chain Reconstructor consumes.
struct ChainFragmentData {
  struct PerFragment {
    int width = 0;
    /// pack_variant_key(key) -> outcome distribution over 2^width.
    std::unordered_map<std::uint64_t, std::vector<double>> variants;
    /// pack_variant_key(key) -> shots that variant ran with (sampled data
    /// only: empty in exact mode). Under a total budget the counts differ
    /// by variant, and across DetectOnline waves by wave.
    std::unordered_map<std::uint64_t, std::size_t> shots;
  };
  std::vector<PerFragment> fragments;
  std::vector<int> boundary_num_cuts;  // K_b per boundary

  std::size_t shots_per_variant = 0;  // 0 in exact mode; smallest count under a budget
  std::uint64_t total_jobs = 0;
  std::uint64_t total_shots = 0;
  double wall_seconds = 0.0;          // wall time spent gathering the data

  [[nodiscard]] int num_fragments() const noexcept {
    return static_cast<int>(fragments.size());
  }
  [[nodiscard]] const std::vector<double>& distribution(int fragment,
                                                        FragmentVariantKey key) const;
};

/// Empty ChainFragmentData shaped for `graph`.
[[nodiscard]] ChainFragmentData make_chain_data(const FragmentGraph& graph);

/// Runs every variant required by the per-boundary specs on `backend` and
/// collects the distributions. Variants are enumerated fragment by fragment
/// (fragment 0 first, keys ascending), the shot plan is split across that
/// order, and seed streams are assigned per variant, so results do not
/// depend on scheduling. Variants are independent and are fanned out over
/// the thread pool.
[[nodiscard]] ChainFragmentData execute_chain(const FragmentGraph& graph,
                                              const ChainNeglectSpec& spec,
                                              backend::Backend& backend,
                                              const ExecutionOptions& options = {});

// ---- Bring-your-own-counts ingestion ----
//
// For running fragment variants on external stacks (e.g. exporting the
// variant circuits of make_fragment_variant with to_qasm and executing them
// on real hardware), fill a make_chain_data(graph) by hand from the returned
// counts. Set its shots_per_variant first: every ingested histogram must
// carry exactly that many shots.

/// Records the counts of fragment `fragment`'s variant `key` (distribution
/// and shot total). Throws when the register width does not match the
/// fragment, the counts are empty, or their shot total differs from
/// data.shots_per_variant (which must be set).
void ingest_counts(ChainFragmentData& data, int fragment, FragmentVariantKey key,
                   const backend::Counts& counts);

}  // namespace qcut::cutting
