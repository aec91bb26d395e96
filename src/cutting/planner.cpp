#include "cutting/planner.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "cutting/variants.hpp"

namespace qcut::cutting {

namespace {

/// Enumeration skeleton shared by the single-cut and chain planners:
/// visits every valid single cut as
/// visit(point, analysis, two-fragment graph, up_op, down_op).
template <typename Visit>
void for_each_single_cut(const Circuit& circuit, Visit&& visit) {
  for (int q = 0; q < circuit.num_qubits(); ++q) {
    const std::vector<std::size_t> ops = circuit.ops_on_qubit(q);
    // Cutting after the last op on a wire is meaningless; skip it.
    for (std::size_t i = 0; i + 1 < ops.size(); ++i) {
      const WirePoint point{q, ops[i]};
      const std::array<WirePoint, 1> cuts = {point};
      const std::optional<circuit::CutAnalysis> analysis =
          circuit::try_analyze_cuts(circuit, cuts);
      if (!analysis.has_value()) continue;
      visit(point, *analysis, make_fragment_graph(circuit, cuts), ops[i], ops[i + 1]);
    }
  }
}

/// CutCandidate from one analyzed single cut and its golden report.
CutCandidate make_candidate(const WirePoint& point, const FragmentGraph& graph,
                            const GoldenDetectionReport& report) {
  const NeglectSpec spec = report.to_spec();
  CutCandidate candidate;
  candidate.point = point;
  candidate.f1_width = graph.fragments[0].width();
  candidate.f2_width = graph.fragments[1].width();
  candidate.violation = report.violation.front();
  for (Pauli p : {Pauli::X, Pauli::Y, Pauli::Z}) {
    if (report.golden.front()[static_cast<std::size_t>(p)]) {
      candidate.golden_bases.push_back(p);
    }
  }
  candidate.terms = spec.num_active_strings();
  candidate.evaluations = count_variants(spec).total();
  return candidate;
}

/// Candidate list; `detect` maps a two-fragment graph to the golden report
/// that should rank it.
template <typename Detect>
std::vector<CutCandidate> enumerate_with(const Circuit& circuit, Detect&& detect) {
  std::vector<CutCandidate> candidates;
  for_each_single_cut(circuit, [&](const WirePoint& point, const circuit::CutAnalysis&,
                                   const FragmentGraph& graph, std::size_t, std::size_t) {
    candidates.push_back(make_candidate(point, graph, detect(graph)));
  });
  return candidates;
}

std::optional<CutCandidate> pick_best(std::vector<CutCandidate> candidates,
                                      const PlannerOptions& options) {
  if (candidates.empty()) return std::nullopt;

  // Score: circuit evaluations dominate (that is the paper's wall-time
  // driver); fragment imbalance is penalized so the simulator load stays
  // manageable on small devices.
  const auto score = [&](const CutCandidate& c) {
    const double imbalance = std::abs(c.f1_width - c.f2_width);
    return static_cast<double>(c.evaluations) + options.balance_weight * imbalance;
  };
  const auto best = std::min_element(
      candidates.begin(), candidates.end(),
      [&](const CutCandidate& a, const CutCandidate& b) { return score(a) < score(b); });
  return *best;
}

}  // namespace

std::vector<CutCandidate> enumerate_single_cuts(const Circuit& circuit, double golden_tol) {
  return enumerate_with(circuit, [&](const FragmentGraph& graph) {
    return detect_golden_exact(graph, golden_tol);
  });
}

std::vector<CutCandidate> enumerate_single_cuts(const Circuit& circuit,
                                                const DiagonalObservable& observable,
                                                double golden_tol) {
  return enumerate_with(circuit, [&](const FragmentGraph& graph) {
    std::optional<GoldenDetectionReport> report =
        try_detect_golden_for_observable(graph, observable, golden_tol);
    // Non-factorizing candidates keep the distribution-level (stronger,
    // hence conservative) verdict.
    return report.has_value() ? std::move(*report) : detect_golden_exact(graph, golden_tol);
  });
}

std::optional<CutCandidate> plan_best_single_cut(const Circuit& circuit,
                                                 const PlannerOptions& options) {
  return pick_best(enumerate_single_cuts(circuit, options.golden_tol), options);
}

std::optional<CutCandidate> plan_best_single_cut(const Circuit& circuit,
                                                 const DiagonalObservable& observable,
                                                 const PlannerOptions& options) {
  return pick_best(enumerate_single_cuts(circuit, observable, options.golden_tol), options);
}

namespace {

/// A single-cut boundary candidate enriched with the prefix structure the
/// chain DP needs.
struct ChainCandidate {
  CutCandidate info;
  std::vector<bool> upstream_ops;  // op -> belongs to the prefix
  std::size_t num_upstream_ops = 0;
  std::size_t up_op = 0;    // last prefix op on the cut wire
  std::size_t down_op = 0;  // first suffix op on the cut wire
  std::size_t settings_count = 0;  // outgoing settings under the detected spec
  std::size_t preps_count = 0;     // incoming preps under the detected spec
};

std::vector<ChainCandidate> enumerate_chain_candidates(const Circuit& circuit, double tol) {
  std::vector<ChainCandidate> out;
  for_each_single_cut(circuit, [&](const WirePoint& point,
                                   const circuit::CutAnalysis& analysis,
                                   const FragmentGraph& graph, std::size_t up_op,
                                   std::size_t down_op) {
    const GoldenDetectionReport report = detect_golden_exact(graph, tol);
    const NeglectSpec spec = report.to_spec();

    ChainCandidate candidate;
    candidate.info = make_candidate(point, graph, report);
    candidate.upstream_ops.assign(circuit.num_ops(), false);
    for (std::size_t op = 0; op < circuit.num_ops(); ++op) {
      if (analysis.op_fragment[op] == circuit::FragmentId::Upstream) {
        candidate.upstream_ops[op] = true;
        ++candidate.num_upstream_ops;
      }
    }
    candidate.up_op = up_op;
    candidate.down_op = down_op;
    candidate.settings_count = required_setting_indices(spec).size();
    candidate.preps_count = required_prep_indices(spec).size();
    out.push_back(std::move(candidate));
  });
  return out;
}

/// Qubits touched by the ops strictly between two prefixes (the interior
/// fragment's width; both cut wires are touched and counted).
int segment_width(const Circuit& circuit, const std::vector<bool>& inner,
                  const std::vector<bool>& outer) {
  std::vector<bool> touched(static_cast<std::size_t>(circuit.num_qubits()), false);
  for (std::size_t op = 0; op < circuit.num_ops(); ++op) {
    if (outer[op] && !inner[op]) {
      for (int q : circuit.op(op).qubits) touched[static_cast<std::size_t>(q)] = true;
    }
  }
  int width = 0;
  for (bool t : touched) width += t ? 1 : 0;
  return width;
}

bool strict_subset(const ChainCandidate& inner, const ChainCandidate& outer) {
  if (inner.num_upstream_ops >= outer.num_upstream_ops) return false;
  for (std::size_t op = 0; op < inner.upstream_ops.size(); ++op) {
    if (inner.upstream_ops[op] && !outer.upstream_ops[op]) return false;
  }
  return true;
}

}  // namespace

std::optional<ChainPlan> plan_chain_cuts(const Circuit& circuit,
                                         const ChainPlannerOptions& options) {
  const std::vector<ChainCandidate> candidates =
      enumerate_chain_candidates(circuit, options.base.golden_tol);
  if (candidates.empty()) return std::nullopt;

  const int cap = options.max_fragment_width;
  const auto fits = [&](int width) { return cap == 0 || width <= cap; };
  const int max_nb = std::max(1, options.max_boundaries);
  const std::size_t n = candidates.size();

  constexpr std::size_t kInf = static_cast<std::size_t>(-1);
  // dp[nb][i]: cheapest evaluations of every fragment closed off when
  // candidate i is the nb-th boundary of the chain (fragments 0..nb-1).
  std::vector<std::vector<std::size_t>> dp(static_cast<std::size_t>(max_nb) + 1,
                                           std::vector<std::size_t>(n, kInf));
  std::vector<std::vector<std::ptrdiff_t>> parent(
      static_cast<std::size_t>(max_nb) + 1, std::vector<std::ptrdiff_t>(n, -1));

  for (std::size_t i = 0; i < n; ++i) {
    if (fits(candidates[i].info.f1_width)) {
      dp[1][i] = candidates[i].settings_count;
    }
  }
  // Valid transitions are independent of the boundary count; compute each
  // (p, i) pair's verdict once instead of re-scanning ops per nb level.
  std::vector<char> transition_ok(max_nb >= 2 ? n * n : 0, 0);
  if (max_nb >= 2) {
    for (std::size_t p = 0; p < n; ++p) {
      for (std::size_t i = 0; i < n; ++i) {
        const ChainCandidate& prev = candidates[p];
        const ChainCandidate& next = candidates[i];
        if (!strict_subset(prev, next)) continue;
        // Chain adjacency: the previous boundary's wire resumes, and the
        // next boundary's wire ends, inside the fragment between them.
        if (!next.upstream_ops[prev.down_op]) continue;
        if (prev.upstream_ops[next.up_op]) continue;
        if (!fits(segment_width(circuit, prev.upstream_ops, next.upstream_ops))) continue;
        transition_ok[p * n + i] = 1;
      }
    }
  }
  for (int nb = 2; nb <= max_nb; ++nb) {
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t p = 0; p < n; ++p) {
        if (dp[nb - 1][p] == kInf || transition_ok[p * n + i] == 0) continue;
        const std::size_t cost =
            dp[nb - 1][p] + candidates[p].preps_count * candidates[i].settings_count;
        if (cost < dp[nb][i]) {
          dp[nb][i] = cost;
          parent[nb][i] = static_cast<std::ptrdiff_t>(p);
        }
      }
    }
  }

  // Close each finite state with its last fragment and rank: fewest total
  // evaluations, then fewer boundaries, then the single-cut tie-break.
  struct Choice {
    int nb = 0;
    std::size_t last = 0;
    std::size_t evaluations = kInf;
  };
  std::optional<Choice> best;
  const auto better = [&](const Choice& a, const Choice& b) {
    if (a.evaluations != b.evaluations) return a.evaluations < b.evaluations;
    if (a.nb != b.nb) return a.nb < b.nb;
    const int ia = std::abs(candidates[a.last].info.f1_width - candidates[a.last].info.f2_width);
    const int ib = std::abs(candidates[b.last].info.f1_width - candidates[b.last].info.f2_width);
    return ia < ib;
  };
  for (int nb = 1; nb <= max_nb; ++nb) {
    for (std::size_t i = 0; i < n; ++i) {
      if (dp[nb][i] == kInf) continue;
      if (!fits(candidates[i].info.f2_width)) continue;
      const Choice choice{nb, i, dp[nb][i] + candidates[i].preps_count};
      if (!best.has_value() || better(choice, *best)) best = choice;
    }
  }
  if (!best.has_value()) return std::nullopt;

  // Walk the parent chain back to the first boundary.
  std::vector<std::size_t> path(static_cast<std::size_t>(best->nb));
  std::size_t at = best->last;
  for (int nb = best->nb; nb >= 1; --nb) {
    path[static_cast<std::size_t>(nb - 1)] = at;
    if (nb > 1) at = static_cast<std::size_t>(parent[nb][at]);
  }

  ChainPlan plan;
  plan.evaluations = best->evaluations;
  for (std::size_t step = 0; step < path.size(); ++step) {
    const ChainCandidate& candidate = candidates[path[step]];
    plan.boundaries.push_back({candidate.info.point});
    plan.boundary_plans.push_back(candidate.info);
    plan.terms *= candidate.info.terms;
    plan.fragment_widths.push_back(
        step == 0 ? candidate.info.f1_width
                  : segment_width(circuit, candidates[path[step - 1]].upstream_ops,
                                  candidate.upstream_ops));
  }
  plan.fragment_widths.push_back(candidates[path.back()].info.f2_width);

  // The DP conditions mirror make_fragment_chain's validation; building the
  // graph here catches any divergence before the plan escapes.
  (void)make_fragment_chain(circuit, plan.boundaries);
  return plan;
}

}  // namespace qcut::cutting
