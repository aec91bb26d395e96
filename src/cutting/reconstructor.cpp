#include "cutting/reconstructor.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/stopwatch.hpp"
#include "metrics/distance.hpp"

namespace qcut::cutting {

namespace {

/// Deterministic parallel reduction over reconstruction terms. Terms are
/// split into fixed-size chunks computed from the term count alone (never
/// from the pool), each chunk accumulates its terms in ascending order into
/// its own slot, and the slots are summed in chunk order — so the result is
/// bit-for-bit independent of thread count and scheduling (the service and
/// direct paths agree even on differently sized pools). A null `pool` runs
/// the same chunks inline, folding each slot into the result as soon as it
/// is complete: every output element still sums its slots in ascending
/// order, from one reused slot buffer.
template <typename AddTerm>
std::vector<double> accumulate_terms(parallel::ThreadPool* pool, std::uint64_t num_terms,
                                     index_t full_dim, const AddTerm& add_term) {
  constexpr std::uint64_t kMaxSlots = 64;  // bounds slot memory at 64 * 2^n doubles
  if (num_terms == 0) return std::vector<double>(full_dim, 0.0);
  const std::uint64_t chunk = (num_terms + kMaxSlots - 1) / kMaxSlots;
  const std::uint64_t num_slots = (num_terms + chunk - 1) / chunk;

  if (pool == nullptr) {
    std::vector<double> joint(full_dim, 0.0);
    std::vector<double> local;
    for (std::uint64_t s = 0; s < num_slots; ++s) {
      local.assign(full_dim, 0.0);
      const std::uint64_t hi = std::min<std::uint64_t>(num_terms, (s + 1) * chunk);
      for (std::uint64_t t = s * chunk; t < hi; ++t) add_term(t, local);
      for (index_t i = 0; i < full_dim; ++i) joint[i] += local[i];
    }
    return joint;
  }

  std::vector<std::vector<double>> slots(num_slots);
  parallel::parallel_for(*pool, 0, num_slots, [&](std::size_t s) {
    std::vector<double>& local = slots[s];
    local.assign(full_dim, 0.0);
    const std::uint64_t lo = static_cast<std::uint64_t>(s) * chunk;
    const std::uint64_t hi = std::min<std::uint64_t>(num_terms, lo + chunk);
    for (std::uint64_t t = lo; t < hi; ++t) add_term(t, local);
  });

  // Merge the slots in parallel over disjoint output stripes: every output
  // element still sums its slots in ascending slot order, so the merge is
  // as deterministic as the serial loop it replaces.
  std::vector<double> joint(full_dim, 0.0);
  constexpr index_t kStripes = 64;
  const index_t stripe = (full_dim + kStripes - 1) / kStripes;
  parallel::parallel_for(*pool, 0, static_cast<std::size_t>((full_dim + stripe - 1) / stripe),
                         [&](std::size_t b) {
                           const index_t lo = static_cast<index_t>(b) * stripe;
                           const index_t hi = std::min(full_dim, lo + stripe);
                           for (const std::vector<double>& slot : slots) {
                             for (index_t i = lo; i < hi; ++i) joint[i] += slot[i];
                           }
                         });
  return joint;
}

}  // namespace

std::vector<double> ReconstructionResult::probabilities() const {
  return metrics::clip_and_normalize(raw_probabilities);
}

namespace {

/// Index plumbing for the chain contraction.
struct ChainLayout {
  const FragmentGraph& graph;
  std::vector<index_t> full_dims;  // 2^{width} per fragment
  std::vector<index_t> out_dims;   // 2^{final bits} per fragment
  std::vector<index_t> cut_dims;   // 2^{K_b} per boundary
  index_t total_cut_dim = 1;

  // Per-fragment bit tables, built once instead of per element: for every
  // fragment-local outcome o, its outgoing tomography bits and its final
  // bits (gathered); for every final-bit tuple x, its original-qubit
  // offset (scattered). 32-bit entries (fragments and the original circuit
  // are at most 26 qubits wide) keep both per-outcome tables together the
  // size of one fragment distribution.
  std::vector<std::vector<std::uint32_t>> out_cut_bits;    // [f][o]
  std::vector<std::vector<std::uint32_t>> final_bits;      // [f][o]
  std::vector<std::vector<std::uint32_t>> final_original;  // [f][x]

  explicit ChainLayout(const FragmentGraph& g) : graph(g) {
    QCUT_CHECK(g.num_original_qubits <= 32, "reconstruct: circuit too wide for 32-bit indices");
    for (const ChainFragment& fragment : g.fragments) {
      full_dims.push_back(pow2(fragment.width()));
      out_dims.push_back(pow2(fragment.output_width()));
      std::vector<std::uint32_t> cut_bits(full_dims.back());
      std::vector<std::uint32_t> bits(full_dims.back());
      for (index_t o = 0; o < full_dims.back(); ++o) {
        cut_bits[o] = static_cast<std::uint32_t>(gather_bits(o, fragment.out_cut_qubits));
        bits[o] = static_cast<std::uint32_t>(gather_bits(o, fragment.output_qubits));
      }
      std::vector<std::uint32_t> original(out_dims.back());
      for (index_t x = 0; x < out_dims.back(); ++x) {
        original[x] = static_cast<std::uint32_t>(scatter_bits(x, fragment.output_original));
      }
      out_cut_bits.push_back(std::move(cut_bits));
      final_bits.push_back(std::move(bits));
      final_original.push_back(std::move(original));
    }
    for (const ChainBoundary& boundary : g.boundaries) {
      cut_dims.push_back(pow2(boundary.num_cuts()));
      total_cut_dim *= pow2(boundary.num_cuts());
    }
  }

  /// Eigenvalue weight table of boundary b for one basis string.
  [[nodiscard]] std::vector<double> weights(int b, std::span<const Pauli> basis) const {
    const index_t dim = cut_dims[static_cast<std::size_t>(b)];
    const int num_cuts = graph.boundaries[static_cast<std::size_t>(b)].num_cuts();
    std::vector<double> w(dim);
    for (index_t a = 0; a < dim; ++a) {
      double acc = 1.0;
      for (int k = 0; k < num_cuts; ++k) {
        acc *= eigenvalue_weight(basis[static_cast<std::size_t>(k)], bit(a, k));
      }
      w[a] = acc;
    }
    return w;
  }

  /// Fragment f's tensor over its final bits for one (incoming string,
  /// outgoing string) pair: the incoming boundary's eigenstate slots are
  /// folded with `w_in` (null for fragment 0) and the outgoing tomography
  /// bits with `w_out` (null for the last fragment). `prep_for_slot` maps
  /// the incoming eigenstate slot tuple to the prep tuple index.
  [[nodiscard]] std::vector<double> fragment_tensor(
      int f, const ChainFragmentData& data, const std::vector<std::uint32_t>* prep_for_slot,
      const std::vector<double>* w_in, std::uint32_t setting,
      const std::vector<double>* w_out) const {
    const index_t in_dim =
        prep_for_slot != nullptr ? cut_dims[static_cast<std::size_t>(f - 1)] : 1;
    const std::vector<std::uint32_t>& a_out_of = out_cut_bits[static_cast<std::size_t>(f)];
    const std::vector<std::uint32_t>& b_of = final_bits[static_cast<std::size_t>(f)];

    std::vector<double> tensor(out_dims[static_cast<std::size_t>(f)], 0.0);
    for (index_t a_in = 0; a_in < in_dim; ++a_in) {
      const std::uint32_t prep =
          prep_for_slot != nullptr ? (*prep_for_slot)[static_cast<std::size_t>(a_in)] : 0;
      const std::vector<double>& probs =
          data.distribution(f, FragmentVariantKey{prep, setting});
      const double in_weight = w_in != nullptr ? (*w_in)[a_in] : 1.0;
      for (index_t o = 0; o < full_dims[static_cast<std::size_t>(f)]; ++o) {
        const double p = probs[o];
        if (p == 0.0) continue;
        const double out_weight = w_out != nullptr ? (*w_out)[a_out_of[o]] : 1.0;
        tensor[b_of[o]] += (in_weight * out_weight) * p;
      }
    }
    return tensor;
  }
};

void check_chain_inputs(const FragmentGraph& graph, const ChainFragmentData& data,
                        const ChainNeglectSpec& spec) {
  QCUT_CHECK(spec.num_boundaries() == graph.num_boundaries(),
             "reconstruct: spec boundary count must match the graph");
  QCUT_CHECK(data.num_fragments() == graph.num_fragments(),
             "reconstruct: chain data does not match the graph");
  for (int f = 0; f < graph.num_fragments(); ++f) {
    QCUT_CHECK(data.fragments[static_cast<std::size_t>(f)].width ==
                   graph.fragments[static_cast<std::size_t>(f)].width(),
               "reconstruct: fragment " + std::to_string(f) + " width mismatch");
  }
}

/// One global term: per-fragment tensors, multiplied out into `local` with
/// the term coefficient. Zero entries are skipped at every level.
void accumulate_term(const ChainLayout& layout,
                     const std::vector<const std::vector<double>*>& tensors, int f, double acc,
                     index_t idx, std::vector<double>& local) {
  if (f == static_cast<int>(tensors.size())) {
    local[idx] += acc;
    return;
  }
  const std::vector<double>& tensor = *tensors[static_cast<std::size_t>(f)];
  const std::vector<std::uint32_t>& original =
      layout.final_original[static_cast<std::size_t>(f)];
  for (index_t x = 0; x < tensor.size(); ++x) {
    const double value = tensor[x];
    if (value == 0.0) continue;
    accumulate_term(layout, tensors, f + 1, acc * value, idx | original[x], local);
  }
}

/// Everything the per-term hot loop needs, precomputed and index-addressed:
/// per boundary the active strings with their weight tables, prep-tuple
/// tables and setting indices (built once — never rebuilt per term), and per
/// fragment one tensor per (incoming string, outgoing string) pair (the
/// ChainFragmentData hash map is consulted once per tensor build, never in
/// the term loop). A term then decodes into per-boundary string indices and
/// contracts pure array lookups.
struct ChainTermEngine {
  struct BoundaryTables {
    std::vector<std::vector<Pauli>> strings;
    std::vector<std::vector<double>> weights;             // [string]
    std::vector<std::uint32_t> setting_index;             // [string]
    std::vector<std::vector<std::uint32_t>> prep_index;   // [string][eigenstate slots]
  };

  std::vector<BoundaryTables> boundaries;
  /// tensors[f][in_string * num_out_strings(f) + out_string]
  std::vector<std::vector<std::vector<double>>> tensors;
  std::uint64_t total_terms = 1;

  [[nodiscard]] std::size_t num_strings(int b) const {
    return boundaries[static_cast<std::size_t>(b)].strings.size();
  }

  /// Multiply-adds the contraction performs: every term touches every
  /// outcome at most once, and each fragment tensor reads its fragment's
  /// distributions once per incoming eigenstate slot.
  [[nodiscard]] std::uint64_t work(const ChainLayout& layout) const {
    const int num_fragments = layout.graph.num_fragments();
    const int num_boundaries = layout.graph.num_boundaries();
    std::uint64_t total = total_terms << layout.graph.num_original_qubits;
    for (int f = 0; f < num_fragments; ++f) {
      const std::uint64_t in_count = f > 0 ? num_strings(f - 1) : 1;
      const std::uint64_t out_count = f < num_boundaries ? num_strings(f) : 1;
      const std::uint64_t in_dim = f > 0 ? layout.cut_dims[static_cast<std::size_t>(f - 1)] : 1;
      total += in_count * out_count * in_dim * layout.full_dims[static_cast<std::size_t>(f)];
    }
    return total;
  }

  /// Mixed-radix decode of a term index (boundary 0 fastest) into
  /// per-boundary string indices — the same enumeration order the previous
  /// per-term implementation used.
  void decode(std::uint64_t t, std::vector<std::size_t>& string_of) const {
    for (std::size_t b = 0; b < boundaries.size(); ++b) {
      const std::uint64_t size = boundaries[b].strings.size();
      string_of[b] = static_cast<std::size_t>(t % size);
      t /= size;
    }
  }

  /// The tensor of fragment f for one decoded term.
  [[nodiscard]] const std::vector<double>& tensor_for(int f,
                                                      const std::vector<std::size_t>& string_of,
                                                      int num_boundaries) const {
    const std::size_t in_s = f > 0 ? string_of[static_cast<std::size_t>(f - 1)] : 0;
    const std::size_t out_s = f < num_boundaries ? string_of[static_cast<std::size_t>(f)] : 0;
    const std::size_t out_count =
        f < num_boundaries ? boundaries[static_cast<std::size_t>(f)].strings.size() : 1;
    return tensors[static_cast<std::size_t>(f)][in_s * out_count + out_s];
  }
};

/// Builds the engine's per-boundary tables (no tensors yet).
ChainTermEngine build_term_tables(const ChainLayout& layout, const ChainNeglectSpec& spec) {
  ChainTermEngine engine;

  for (int b = 0; b < spec.num_boundaries(); ++b) {
    ChainTermEngine::BoundaryTables tables;
    tables.strings = spec.boundary(b).active_strings();
    const index_t cut_dim = layout.cut_dims[static_cast<std::size_t>(b)];
    tables.weights.reserve(tables.strings.size());
    tables.setting_index.reserve(tables.strings.size());
    tables.prep_index.reserve(tables.strings.size());
    for (const std::vector<Pauli>& basis : tables.strings) {
      tables.weights.push_back(layout.weights(b, basis));
      tables.setting_index.push_back(settings_index_for_basis(basis));
      std::vector<std::uint32_t> preps(static_cast<std::size_t>(cut_dim));
      for (index_t a = 0; a < cut_dim; ++a) {
        preps[static_cast<std::size_t>(a)] =
            preps_index_for_basis(basis, static_cast<std::uint32_t>(a));
      }
      tables.prep_index.push_back(std::move(preps));
    }
    engine.total_terms *= tables.strings.size();
    engine.boundaries.push_back(std::move(tables));
  }
  return engine;
}

/// Builds every fragment tensor of `engine`; construction fans out over
/// `pool` when given (disjoint slots, deterministic), otherwise runs inline.
void build_tensors(const ChainLayout& layout, const ChainFragmentData& data,
                   ChainTermEngine& engine, parallel::ThreadPool* pool) {
  const FragmentGraph& graph = layout.graph;
  // Flatten the (fragment, in string, out string) tensor jobs.
  struct TensorJob {
    int fragment;
    std::size_t in_s;
    std::size_t out_s;
  };
  std::vector<TensorJob> jobs;
  engine.tensors.resize(static_cast<std::size_t>(graph.num_fragments()));
  for (int f = 0; f < graph.num_fragments(); ++f) {
    const std::size_t in_count = f > 0 ? engine.num_strings(f - 1) : 1;
    const std::size_t out_count = f < graph.num_boundaries() ? engine.num_strings(f) : 1;
    engine.tensors[static_cast<std::size_t>(f)].resize(in_count * out_count);
    for (std::size_t in_s = 0; in_s < in_count; ++in_s) {
      for (std::size_t out_s = 0; out_s < out_count; ++out_s) {
        jobs.push_back(TensorJob{f, in_s, out_s});
      }
    }
  }

  const auto build_one = [&](std::size_t j) {
    const TensorJob& job = jobs[j];
    const int f = job.fragment;
    const ChainTermEngine::BoundaryTables* in_tables =
        f > 0 ? &engine.boundaries[static_cast<std::size_t>(f - 1)] : nullptr;
    const ChainTermEngine::BoundaryTables* out_tables =
        f < graph.num_boundaries() ? &engine.boundaries[static_cast<std::size_t>(f)] : nullptr;
    const std::size_t out_count = out_tables != nullptr ? out_tables->strings.size() : 1;
    engine.tensors[static_cast<std::size_t>(f)][job.in_s * out_count + job.out_s] =
        layout.fragment_tensor(
            f, data, in_tables != nullptr ? &in_tables->prep_index[job.in_s] : nullptr,
            in_tables != nullptr ? &in_tables->weights[job.in_s] : nullptr,
            out_tables != nullptr ? out_tables->setting_index[job.out_s] : 0,
            out_tables != nullptr ? &out_tables->weights[job.out_s] : nullptr);
  };
  if (pool != nullptr) {
    parallel::parallel_for(*pool, 0, jobs.size(), build_one);
  } else {
    for (std::size_t j = 0; j < jobs.size(); ++j) build_one(j);
  }
}

}  // namespace

ReconstructionResult reconstruct_distribution(const FragmentGraph& graph,
                                              const ChainFragmentData& data,
                                              const ChainNeglectSpec& spec,
                                              const ReconstructionOptions& options) {
  check_chain_inputs(graph, data, spec);
  Stopwatch timer;

  const ChainLayout layout(graph);
  const double coefficient = 1.0 / static_cast<double>(layout.total_cut_dim);
  const index_t full_dim = pow2(graph.num_original_qubits);
  const int num_fragments = graph.num_fragments();
  const int num_boundaries = graph.num_boundaries();

  // Small contractions run inline: below the work threshold, pool fan-out
  // costs more CPU than it saves wall time. Neutral to the result either way.
  ChainTermEngine engine = build_term_tables(layout, spec);
  parallel::ThreadPool* pool = nullptr;
  if (engine.work(layout) >= kMinParallelReconstructionWork) {
    pool = options.pool != nullptr ? options.pool : &parallel::ThreadPool::global();
  }
  build_tensors(layout, data, engine, pool);

  std::vector<double> joint = accumulate_terms(
      pool, engine.total_terms, full_dim, [&](std::uint64_t t, std::vector<double>& local) {
        std::vector<std::size_t> string_of(static_cast<std::size_t>(num_boundaries));
        engine.decode(t, string_of);
        std::vector<const std::vector<double>*> tensors(
            static_cast<std::size_t>(num_fragments));
        for (int f = 0; f < num_fragments; ++f) {
          tensors[static_cast<std::size_t>(f)] = &engine.tensor_for(f, string_of, num_boundaries);
        }
        accumulate_term(layout, tensors, 0, coefficient, 0, local);
      });

  ReconstructionResult result;
  result.raw_probabilities = std::move(joint);
  result.terms = engine.total_terms;
  result.seconds = timer.elapsed_seconds();
  return result;
}

double reconstruct_probability_of(const FragmentGraph& graph, const ChainFragmentData& data,
                                  const ChainNeglectSpec& spec, index_t outcome) {
  check_chain_inputs(graph, data, spec);
  QCUT_CHECK(outcome < pow2(graph.num_original_qubits),
             "reconstruct_probability_of: outcome out of range");

  const ChainLayout layout(graph);
  const double coefficient = 1.0 / static_cast<double>(layout.total_cut_dim);
  const int num_fragments = graph.num_fragments();
  const int num_boundaries = graph.num_boundaries();
  ChainTermEngine engine = build_term_tables(layout, spec);
  build_tensors(layout, data, engine, nullptr);

  // Original outcome -> per-fragment final-bit pieces.
  std::vector<index_t> piece(static_cast<std::size_t>(num_fragments), 0);
  for (int f = 0; f < num_fragments; ++f) {
    const ChainFragment& fragment = graph.fragments[static_cast<std::size_t>(f)];
    for (std::size_t j = 0; j < fragment.output_original.size(); ++j) {
      if (bit(outcome, fragment.output_original[j]) != 0) {
        piece[static_cast<std::size_t>(f)] =
            set_bit(piece[static_cast<std::size_t>(f)], static_cast<int>(j));
      }
    }
  }

  double total = 0.0;
  std::vector<std::size_t> string_of(static_cast<std::size_t>(num_boundaries));
  for (std::uint64_t t = 0; t < engine.total_terms; ++t) {
    engine.decode(t, string_of);
    double acc = coefficient;
    for (int f = 0; f < num_fragments; ++f) {
      acc *= engine.tensor_for(f, string_of, num_boundaries)[piece[static_cast<std::size_t>(f)]];
    }
    total += acc;
  }
  return total;
}

double reconstruct_diagonal_expectation(const FragmentGraph& graph,
                                        const ChainFragmentData& data,
                                        const ChainNeglectSpec& spec,
                                        std::span<const double> diagonal,
                                        const ReconstructionOptions& options) {
  QCUT_CHECK(diagonal.size() == pow2(graph.num_original_qubits),
             "reconstruct_diagonal_expectation: diagonal length must be 2^n");
  const ReconstructionResult result = reconstruct_distribution(graph, data, spec, options);
  double acc = 0.0;
  for (std::size_t i = 0; i < diagonal.size(); ++i) {
    acc += diagonal[i] * result.raw_probabilities[i];
  }
  return acc;
}

}  // namespace qcut::cutting
