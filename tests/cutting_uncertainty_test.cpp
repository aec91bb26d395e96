#include "cutting/uncertainty.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <utility>

#include "backend/statevector_backend.hpp"
#include "circuit/random.hpp"
#include "common/error.hpp"
#include "common/ordered.hpp"
#include "cutting/pipeline.hpp"
#include "metrics/stats.hpp"
#include "service/cut_service.hpp"
#include "sim/sampling.hpp"
#include "sim/statevector.hpp"

namespace qcut::cutting {
namespace {

struct Fixture {
  circuit::GoldenAnsatz ansatz;
  FragmentGraph graph;
  ChainNeglectSpec spec;  // no neglect
  ChainFragmentData data;
  std::vector<double> truth;

  static Fixture make(std::size_t shots, std::uint64_t seed) {
    Rng rng(seed);
    circuit::GoldenAnsatzOptions options;
    options.num_qubits = 5;
    circuit::GoldenAnsatz ansatz = circuit::make_golden_ansatz(options, rng);
    const std::array<circuit::WirePoint, 1> cuts = {ansatz.cut};
    FragmentGraph graph = make_fragment_graph(ansatz.circuit, cuts);

    backend::StatevectorBackend backend(seed * 7 + 1);
    ExecutionOptions exec;
    exec.shots_per_variant = shots;
    ChainNeglectSpec spec = ChainNeglectSpec::none(graph);
    ChainFragmentData data = execute_chain(graph, spec, backend, exec);

    sim::StateVector sv(5);
    sv.apply_circuit(ansatz.circuit);
    return Fixture{std::move(ansatz), std::move(graph), std::move(spec), std::move(data),
                   sv.probabilities()};
  }
};

TEST(Bootstrap, DistributionBandsCoverTruth) {
  const Fixture fx = Fixture::make(4000, 1);
  BootstrapOptions options;
  options.replicas = 150;
  const DistributionUncertainty u =
      bootstrap_distribution(fx.graph, fx.data, fx.spec, options);

  ASSERT_EQ(u.mean.size(), 32u);
  int covered = 0;
  for (index_t x = 0; x < 32; ++x) {
    EXPECT_GE(u.ci_upper[x], u.ci_lower[x]);
    // Widen the bootstrap band slightly: it is centered on the observed
    // data, whose own deviation from truth is one extra sigma.
    const double slack = 2.0 * u.standard_error[x] + 1e-6;
    if (fx.truth[x] >= u.ci_lower[x] - slack && fx.truth[x] <= u.ci_upper[x] + slack) {
      ++covered;
    }
  }
  // Expect the overwhelming majority of outcomes covered.
  EXPECT_GE(covered, 29);
}

TEST(Bootstrap, StandardErrorShrinksWithShots) {
  const Fixture coarse = Fixture::make(500, 2);
  const Fixture fine = Fixture::make(50000, 2);
  BootstrapOptions options;
  options.replicas = 100;

  const DistributionUncertainty u_coarse =
      bootstrap_distribution(coarse.graph, coarse.data, coarse.spec, options);
  const DistributionUncertainty u_fine =
      bootstrap_distribution(fine.graph, fine.data, fine.spec, options);

  double coarse_total = 0.0, fine_total = 0.0;
  for (index_t x = 0; x < 32; ++x) {
    coarse_total += u_coarse.standard_error[x];
    fine_total += u_fine.standard_error[x];
  }
  // Shots grew by 100x, SE should drop by about 10x; require at least 5x.
  EXPECT_LT(fine_total * 5.0, coarse_total);
}

TEST(Bootstrap, ExpectationCoversStatevectorValue) {
  const Fixture fx = Fixture::make(8000, 3);
  circuit::PauliString z_all(5);
  for (int q = 0; q < 5; ++q) z_all.set_label(q, linalg::Pauli::Z);
  const DiagonalObservable obs = DiagonalObservable::from_pauli(z_all);

  sim::StateVector sv(5);
  sv.apply_circuit(fx.ansatz.circuit);
  const double exact = sv.expectation_pauli(z_all);

  BootstrapOptions options;
  options.replicas = 150;
  const ExpectationUncertainty u =
      bootstrap_expectation(fx.graph, fx.data, fx.spec, obs, options);

  EXPECT_NEAR(u.estimate, exact, 5.0 * u.standard_error + 0.05);
  EXPECT_LT(u.ci_lower, u.ci_upper);
  EXPECT_GT(u.standard_error, 0.0);
  // The true value should sit within a slightly widened CI.
  EXPECT_GE(exact, u.ci_lower - 2.0 * u.standard_error);
  EXPECT_LE(exact, u.ci_upper + 2.0 * u.standard_error);
}

/// (fragment, pack_variant_key) -> the shots that variant was planned with.
using ShotPlan = std::map<std::pair<int, std::uint64_t>, std::size_t>;

/// Appends the plan of one execution order: `variants` in order, sharing
/// `budget` as plan_variant_shots splits it.
void plan_shots(ShotPlan& plan, const std::vector<std::pair<int, FragmentVariantKey>>& variants,
                std::size_t budget) {
  const std::vector<std::size_t> shots =
      plan_variant_shots(0, budget, /*exact=*/false, variants.size());
  for (std::size_t v = 0; v < variants.size(); ++v) {
    plan.emplace(std::make_pair(variants[v].first, pack_variant_key(variants[v].second)),
                 shots[v]);
  }
}

std::vector<std::pair<int, FragmentVariantKey>> fragment_variants(const FragmentGraph& graph,
                                                                  int fragment,
                                                                  const ChainNeglectSpec& spec) {
  std::vector<std::pair<int, FragmentVariantKey>> out;
  for (const FragmentVariantKey& key : required_fragment_variants(graph, fragment, spec)) {
    out.emplace_back(fragment, key);
  }
  return out;
}

/// The bootstrap written out against a known shot plan: each replica
/// resamples fragment by fragment, keys ascending, every variant at its own
/// planned shot count, from Rng(seed).child(replica).
ExpectationUncertainty reference_bootstrap_expectation(const FragmentGraph& graph,
                                                       const ChainFragmentData& data,
                                                       const ChainNeglectSpec& spec,
                                                       const DiagonalObservable& observable,
                                                       const BootstrapOptions& options,
                                                       const ShotPlan& plan) {
  const Rng rng(options.seed);
  std::vector<double> values;
  for (std::size_t r = 0; r < options.replicas; ++r) {
    Rng replica_rng = rng.child(r);
    ChainFragmentData replica = data;
    for (int f = 0; f < replica.num_fragments(); ++f) {
      auto& variants = replica.fragments[static_cast<std::size_t>(f)].variants;
      for (std::uint64_t key : sorted_keys(variants)) {
        std::vector<double>& probs = variants.at(key);
        probs = sim::histogram_to_probabilities(
            sim::sample_histogram(probs, plan.at({f, key}), replica_rng));
      }
    }
    values.push_back(
        reconstruct_diagonal_expectation(graph, replica, spec, observable.diagonal()));
  }
  ExpectationUncertainty out;
  out.estimate = reconstruct_diagonal_expectation(graph, data, spec, observable.diagonal());
  out.standard_error = metrics::summarize(values).stddev;
  std::sort(values.begin(), values.end());
  const double alpha = (1.0 - options.confidence) / 2.0;
  const auto pick = [&](double quantile) {
    const double pos = quantile * static_cast<double>(values.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return values[lo] * (1.0 - frac) + values[hi] * frac;
  };
  out.ci_lower = pick(alpha);
  out.ci_upper = pick(1.0 - alpha);
  return out;
}

void expect_same_uncertainty(const ExpectationUncertainty& got,
                             const ExpectationUncertainty& want) {
  EXPECT_EQ(got.estimate, want.estimate);
  EXPECT_EQ(got.standard_error, want.standard_error);
  EXPECT_EQ(got.ci_lower, want.ci_lower);
  EXPECT_EQ(got.ci_upper, want.ci_upper);
}

/// Under a total budget the even split leaves the earliest variants one
/// shot more than data.shots_per_variant (the smallest share). Each replica
/// must resample every variant at the shots it actually ran with.
TEST(Bootstrap, UnevenBudgetResamplesEachVariantAtItsOwnShare) {
  Rng rng(8);
  circuit::GoldenAnsatzOptions options;
  options.num_qubits = 5;
  const circuit::GoldenAnsatz ansatz = circuit::make_golden_ansatz(options, rng);
  const std::array<circuit::WirePoint, 1> cuts = {ansatz.cut};
  const FragmentGraph graph = make_fragment_graph(ansatz.circuit, cuts);
  const ChainNeglectSpec spec = ChainNeglectSpec::none(graph);

  backend::StatevectorBackend backend(12);
  ExecutionOptions exec;
  exec.total_shot_budget = 9008;  // 9 variants: 8 get 1001 shots, 1 gets 1000
  const ChainFragmentData data = execute_chain(graph, spec, backend, exec);
  ASSERT_EQ(data.shots_per_variant, 1000u);

  // execute_chain plans fragment by fragment, keys in required order.
  std::vector<std::pair<int, FragmentVariantKey>> order;
  for (int f = 0; f < graph.num_fragments(); ++f) {
    for (const auto& variant : fragment_variants(graph, f, spec)) order.push_back(variant);
  }
  ShotPlan plan;
  plan_shots(plan, order, exec.total_shot_budget);

  const DiagonalObservable obs = DiagonalObservable::parity(5);
  BootstrapOptions boot;
  boot.replicas = 40;
  expect_same_uncertainty(bootstrap_expectation(graph, data, spec, obs, boot),
                          reference_bootstrap_expectation(graph, data, spec, obs, boot, plan));
}

/// A DetectOnline service run plans each wave over its own variants: with a
/// 9000-shot budget on a golden two-fragment cut the 3 upstream settings run
/// 3000 shots each and the 4 remaining downstream preparations 2250 each.
/// The response's error bars must resample the downstream variants at 2250.
TEST(Bootstrap, OnlineDetectionRunResamplesEachWaveAtItsShare) {
  Rng rng(9);
  circuit::GoldenAnsatzOptions options;
  options.num_qubits = 5;
  const circuit::GoldenAnsatz ansatz = circuit::make_golden_ansatz(options, rng);
  const DiagonalObservable obs = DiagonalObservable::parity(5);

  BootstrapOptions boot;
  boot.replicas = 40;
  CutRequest request(ansatz.circuit);
  request.with_boundaries({{ansatz.cut}})
      .with_observable(obs)
      .with_golden(GoldenMode::DetectOnline)
      .with_shot_budget(9000)
      .with_uncertainty(boot);

  backend::StatevectorBackend backend(13);
  service::CutService service(backend);
  const CutResponse response = service.run(request);
  ASSERT_TRUE(response.uncertainty.has_value());
  ASSERT_EQ(response.data.fragments[1].variants.size(), 4u) << "golden basis not detected";
  ASSERT_EQ(response.data.shots_per_variant, 3000u);  // the first wave's share

  ShotPlan plan;
  plan_shots(plan, fragment_variants(response.graph, 0, ChainNeglectSpec::none(response.graph)),
             9000);
  plan_shots(plan, fragment_variants(response.graph, 1, response.specs), 9000);
  expect_same_uncertainty(*response.uncertainty,
                          reference_bootstrap_expectation(response.graph, response.data,
                                                          response.specs, obs, boot, plan));
}

TEST(Bootstrap, GoldenSpecGivesComparableErrorWithFewerVariants) {
  // Same per-variant shots: the golden pipeline estimates the same quantity
  // from 6 variants instead of 9 with comparable (not worse) uncertainty.
  Rng rng(4);
  circuit::GoldenAnsatzOptions options;
  options.num_qubits = 5;
  const circuit::GoldenAnsatz ansatz = circuit::make_golden_ansatz(options, rng);
  const std::array<circuit::WirePoint, 1> cuts = {ansatz.cut};
  const FragmentGraph graph = make_fragment_graph(ansatz.circuit, cuts);

  NeglectSpec golden_spec(1);
  golden_spec.neglect(0, ansatz.golden_basis);
  const ChainNeglectSpec golden{{golden_spec}};
  const ChainNeglectSpec full = ChainNeglectSpec::none(graph);

  backend::StatevectorBackend backend(11);
  ExecutionOptions exec;
  exec.shots_per_variant = 4000;
  const ChainFragmentData full_data = execute_chain(graph, full, backend, exec);
  const ChainFragmentData golden_data = execute_chain(graph, golden, backend, exec);

  const DiagonalObservable obs = DiagonalObservable::parity(5);
  BootstrapOptions boot;
  boot.replicas = 100;
  const ExpectationUncertainty u_full =
      bootstrap_expectation(graph, full_data, full, obs, boot);
  const ExpectationUncertainty u_golden =
      bootstrap_expectation(graph, golden_data, golden, obs, boot);

  EXPECT_LT(u_golden.standard_error, 2.0 * u_full.standard_error + 1e-3);
}

TEST(Bootstrap, RejectsExactData) {
  Rng rng(5);
  circuit::GoldenAnsatzOptions options;
  options.num_qubits = 5;
  const circuit::GoldenAnsatz ansatz = circuit::make_golden_ansatz(options, rng);
  const std::array<circuit::WirePoint, 1> cuts = {ansatz.cut};
  const FragmentGraph graph = make_fragment_graph(ansatz.circuit, cuts);
  const ChainNeglectSpec spec = ChainNeglectSpec::none(graph);
  backend::StatevectorBackend backend(2);
  ExecutionOptions exec;
  exec.exact = true;
  const ChainFragmentData data = execute_chain(graph, spec, backend, exec);
  EXPECT_THROW((void)bootstrap_distribution(graph, data, spec), Error);
}

TEST(Bootstrap, OptionValidation) {
  const Fixture fx = Fixture::make(100, 6);
  BootstrapOptions bad;
  bad.replicas = 1;
  EXPECT_THROW((void)bootstrap_distribution(fx.graph, fx.data, fx.spec, bad), Error);
  bad.replicas = 10;
  bad.confidence = 1.5;
  EXPECT_THROW((void)bootstrap_distribution(fx.graph, fx.data, fx.spec, bad), Error);
}

TEST(Bootstrap, DeterministicForSeed) {
  const Fixture fx = Fixture::make(1000, 7);
  BootstrapOptions options;
  options.replicas = 20;
  options.seed = 99;
  const DistributionUncertainty a =
      bootstrap_distribution(fx.graph, fx.data, fx.spec, options);
  const DistributionUncertainty b =
      bootstrap_distribution(fx.graph, fx.data, fx.spec, options);
  EXPECT_EQ(a.mean, b.mean);
  EXPECT_EQ(a.ci_lower, b.ci_lower);
}

}  // namespace
}  // namespace qcut::cutting
