// Chain planning and the chain request path: when a max-fragment-width
// constraint rules out every single-cut bipartition, plan_chain_cuts must
// find a multi-boundary chain whose fragments all fit, and the CutRequest /
// CutService stack must execute it end to end — with per-boundary golden
// neglection shrinking the variant count versus the no-neglect chain.

#include <gtest/gtest.h>

#include <algorithm>
#include <span>

#include "backend/statevector_backend.hpp"
#include "common/error.hpp"
#include "cutting/pipeline.hpp"
#include "service/cut_service.hpp"
#include "sim/statevector.hpp"

namespace qcut::cutting {
namespace {

using circuit::WirePoint;

/// 7 qubits, three width-3 blocks chained through q2 and q4, all-real
/// gates. Widths of every valid single-cut bipartition: 3|5, 4|4, or 5|3 —
/// none fits a 3-qubit device, while the 2-boundary chain splits 3|3|3.
Circuit three_block_chain() {
  Circuit c(7);
  c.h(0).cx(0, 1).cx(1, 2).ry(0.3, 2);  // ops 0-3, block 0 on {0,1,2}
  c.cx(2, 3).cx(3, 4).ry(0.5, 4);       // ops 4-6, block 1 on {2,3,4}
  c.cx(4, 5).cx(5, 6).ry(0.7, 6);       // ops 7-9, block 2 on {4,5,6}
  return c;
}

std::vector<double> truth_of(const Circuit& c) {
  sim::StateVector sv(c.num_qubits());
  sv.apply_circuit(c);
  return sv.probabilities();
}

TEST(ChainPlanner, NoSingleCutFitsAWidthThreeDevice) {
  const Circuit c = three_block_chain();
  for (const CutCandidate& candidate : enumerate_single_cuts(c)) {
    EXPECT_GT(std::max(candidate.f1_width, candidate.f2_width), 3)
        << "cut on qubit " << candidate.point.qubit;
  }
  ChainPlannerOptions one_boundary;
  one_boundary.max_fragment_width = 3;
  one_boundary.max_boundaries = 1;
  EXPECT_FALSE(plan_chain_cuts(c, one_boundary).has_value());
}

TEST(ChainPlanner, WidthConstraintForcesThreeFragmentChain) {
  const Circuit c = three_block_chain();
  ChainPlannerOptions options;
  options.max_fragment_width = 3;
  const std::optional<ChainPlan> plan = plan_chain_cuts(c, options);

  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->num_boundaries(), 2);
  ASSERT_EQ(plan->fragment_widths.size(), 3u);
  for (int width : plan->fragment_widths) EXPECT_LE(width, 3);
  ASSERT_EQ(plan->boundary_plans.size(), 2u);

  // Real amplitudes: exact detection neglects at least Y at every boundary
  // (a cut placed where the wire is classical is even cheaper), so the plan
  // prices at most 3 terms per boundary instead of the standard 4, and at
  // most 2 + 4*2 + 4 = 14 evaluations instead of 3 + 6*3 + 6 = 27.
  for (const CutCandidate& boundary : plan->boundary_plans) {
    EXPECT_TRUE(std::find(boundary.golden_bases.begin(), boundary.golden_bases.end(),
                          Pauli::Y) != boundary.golden_bases.end());
    EXPECT_LE(boundary.terms, 3u);
  }
  EXPECT_LE(plan->terms, 9u);
  EXPECT_LE(plan->evaluations, 14u);

  // The planned chain builds and stays within the cap.
  const FragmentGraph graph = make_fragment_chain(c, plan->boundaries);
  EXPECT_EQ(graph.num_fragments(), 3);
  EXPECT_LE(graph.max_fragment_width(), 3);
}

TEST(ChainPlanner, UnconstrainedPlanningPrefersOneBoundary) {
  const Circuit c = three_block_chain();
  const std::optional<ChainPlan> plan = plan_chain_cuts(c, ChainPlannerOptions{});
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->num_boundaries(), 1);
}

TEST(ChainRequest, AutoChainPlanRunsEndToEndExactly) {
  const Circuit c = three_block_chain();

  ChainPlannerOptions planner;
  planner.max_fragment_width = 3;
  CutRequest request(c);
  request.with_chain_plan(planner)
      .with_golden(GoldenMode::DetectExact)
      .with_exact();

  backend::StatevectorBackend backend(5);
  const CutResponse response = run(request, backend);

  ASSERT_TRUE(response.chain_plan.has_value());
  EXPECT_FALSE(response.plan.has_value());
  EXPECT_EQ(response.graph.num_fragments(), 3);
  EXPECT_LE(response.graph.max_fragment_width(), 3);
  EXPECT_EQ(response.boundaries.size(), 2u);
  EXPECT_EQ(response.cuts.size(), 2u);

  // Per-boundary golden neglection executed fewer variants than the
  // no-neglect chain would have, exactly as the plan priced it.
  const ChainVariantCounts full =
      count_chain_variants(response.graph, ChainNeglectSpec::none(response.graph));
  EXPECT_EQ(response.data.total_jobs, response.chain_plan->evaluations);
  EXPECT_LT(response.data.total_jobs, full.total());
  EXPECT_EQ(response.reconstruction.terms, response.chain_plan->terms);

  // Exact reconstruction equals the uncut statevector distribution.
  const std::vector<double> truth = truth_of(c);
  for (std::size_t x = 0; x < truth.size(); ++x) {
    ASSERT_NEAR(response.reconstruction.raw_probabilities[x], truth[x], 1e-8) << x;
  }
}

TEST(ChainRequest, ExplicitBoundariesWithProvidedSpecs) {
  const Circuit c = three_block_chain();
  const BoundaryList boundaries = {{WirePoint{2, 3}}, {WirePoint{4, 6}}};

  NeglectSpec golden(1);
  golden.neglect(0, Pauli::Y);

  CutRequest request(c);
  request.with_boundaries(boundaries).with_provided_specs({golden, golden}).with_exact();

  backend::StatevectorBackend backend(6);
  const CutResponse response = run(request, backend);
  EXPECT_EQ(response.graph.num_fragments(), 3);
  EXPECT_TRUE(response.specs.boundary(0).is_neglected(0, Pauli::Y));
  EXPECT_TRUE(response.specs.boundary(1).is_neglected(0, Pauli::Y));

  const std::vector<double> truth = truth_of(c);
  for (std::size_t x = 0; x < truth.size(); ++x) {
    ASSERT_NEAR(response.reconstruction.raw_probabilities[x], truth[x], 1e-8) << x;
  }
}

TEST(ChainRequest, OnlineDetectionRunsOneWavePerFragment) {
  // DetectOnline on a 3-fragment chain: fragment f executes, the detector
  // prunes boundary f, and only then fragment f+1's variants are issued.
  // Real amplitudes make Y golden at both boundaries, so the waves are
  // 3 settings, then 4x3 interior variants, then 4 preps.
  const Circuit c = three_block_chain();
  const BoundaryList boundaries = {{WirePoint{2, 3}}, {WirePoint{4, 6}}};

  CutRequest request(c);
  request.with_boundaries(boundaries)
      .with_golden(GoldenMode::DetectOnline)
      .with_shots(4000);

  backend::StatevectorBackend backend(91);
  service::CutService service(backend);
  const CutResponse response = service.run(request);

  EXPECT_TRUE(response.specs.boundary(0).is_neglected(0, Pauli::Y));
  EXPECT_TRUE(response.specs.boundary(1).is_neglected(0, Pauli::Y));
  EXPECT_EQ(response.data.total_jobs, 3u + 12u + 4u);
  EXPECT_EQ(service.stats().scheduler.executions, 19u);

  // Sampled reconstruction stays close to the truth.
  const std::vector<double> probs = response.probabilities();
  const std::vector<double> truth = truth_of(c);
  double tvd = 0.0;
  for (std::size_t x = 0; x < truth.size(); ++x) {
    tvd += 0.5 * std::abs(probs[x] - truth[x]);
  }
  EXPECT_LT(tvd, 0.1);
}

TEST(ChainRequest, ValidationCatchesChainSpecificMistakes) {
  const Circuit c = three_block_chain();
  const BoundaryList boundaries = {{WirePoint{2, 3}}, {WirePoint{4, 6}}};

  // Provided mode with a flat spec on a multi-boundary selection.
  {
    CutRequest request(c);
    request.with_boundaries(boundaries);
    request.options.golden_mode = GoldenMode::Provided;
    request.options.provided_spec = NeglectSpec(1);
    EXPECT_THROW(validate(request), Error);
  }
  // Wrong number of per-boundary specs.
  {
    CutRequest request(c);
    request.with_boundaries(boundaries).with_provided_specs({NeglectSpec(1)});
    EXPECT_THROW(validate(request), Error);
  }
  // Empty boundary group.
  {
    CutRequest request(c);
    request.with_boundaries({{WirePoint{2, 3}}, {}});
    EXPECT_THROW(validate(request), Error);
  }
  // Bootstrap is not one of them: it works on any chain.
  {
    CutRequest request(c);
    request.with_boundaries(boundaries)
        .with_observable(DiagonalObservable::parity(7))
        .with_uncertainty();
    EXPECT_NO_THROW(validate(request));
  }
}

}  // namespace
}  // namespace qcut::cutting
