// Planner <-> observable interaction: Definition 1 is observable-dependent,
// so the observable-specific detector can admit golden bases the
// distribution-level detector rejects, and the observable-aware planner can
// therefore choose a cut that executes strictly fewer variants.

#include <gtest/gtest.h>

#include "backend/statevector_backend.hpp"
#include "circuit/pauli_string.hpp"
#include "cutting/pipeline.hpp"
#include "cutting/planner.hpp"
#include "service/cut_service.hpp"
#include "sim/statevector.hpp"

namespace qcut::cutting {
namespace {

using circuit::Circuit;
using circuit::WirePoint;

/// The cut wire (qubit 1, after the cz) carries (|0,+> + |1,->)/sqrt(2):
/// maximally entangled with the upstream output qubit 0. Conditioned on
/// qubit 0 the cut state is |+> or |->, so the distribution-level detector
/// sees an X violation of 1/2 and must keep the X basis. An observable
/// supported entirely on f2 (O_f1 = I on qubit 0) sees only the cut
/// marginal - the maximally mixed state - and neglects X, Y, and Z.
Circuit make_circuit() {
  Circuit c(3);
  c.h(0).h(1).cz(0, 1);
  c.ry(0.5, 2).cx(1, 2);
  return c;
}

const WirePoint kGoldenCut{1, 2};  // qubit 1, after the cz

DiagonalObservable zz_observable() {
  return DiagonalObservable::from_pauli(circuit::PauliString::parse("ZZI"));
}

TEST(PlannerObservable, ObservableDetectorAdmitsBasesTheExactDetectorRejects) {
  const Circuit circuit = make_circuit();
  const std::array<WirePoint, 1> cuts = {kGoldenCut};
  const FragmentGraph graph = make_fragment_graph(circuit, cuts);

  const GoldenDetectionReport distribution = detect_golden_exact(graph);
  EXPECT_FALSE(distribution.golden[0][static_cast<std::size_t>(Pauli::X)]);
  EXPECT_GT(distribution.violation[0][static_cast<std::size_t>(Pauli::X)], 0.4);
  EXPECT_TRUE(distribution.golden[0][static_cast<std::size_t>(Pauli::Y)]);
  EXPECT_TRUE(distribution.golden[0][static_cast<std::size_t>(Pauli::Z)]);

  const auto observable = try_detect_golden_for_observable(graph, zz_observable());
  ASSERT_TRUE(observable.has_value());
  EXPECT_TRUE(observable->golden[0][static_cast<std::size_t>(Pauli::X)]);
  EXPECT_TRUE(observable->golden[0][static_cast<std::size_t>(Pauli::Y)]);
  EXPECT_TRUE(observable->golden[0][static_cast<std::size_t>(Pauli::Z)]);

  // Strictly more neglect -> strictly fewer variants at this cut.
  EXPECT_EQ(count_variants(distribution.to_spec()).total(), 6u);
  EXPECT_EQ(count_variants(observable->to_spec()).total(), 3u);
}

TEST(PlannerObservable, ObservableAwarePlanNeedsFewerEvaluations) {
  const Circuit circuit = make_circuit();

  const auto distribution_plan = plan_best_single_cut(circuit);
  ASSERT_TRUE(distribution_plan.has_value());

  const auto observable_plan = plan_best_single_cut(circuit, zz_observable());
  ASSERT_TRUE(observable_plan.has_value());
  EXPECT_EQ(observable_plan->point, kGoldenCut);
  EXPECT_EQ(observable_plan->evaluations, 3u);
  EXPECT_LT(observable_plan->evaluations, distribution_plan->evaluations);
}

TEST(PlannerObservable, AutoPlannedObservableRequestExecutesFewerVariants) {
  const Circuit circuit = make_circuit();

  // Auto-planned distribution request under exact detection.
  CutRequest distribution(circuit);
  distribution.with_auto_plan().with_golden(GoldenMode::DetectExact).with_shots(1500);
  backend::StatevectorBackend distribution_backend(5);
  service::CutService distribution_service(distribution_backend);
  const CutResponse distribution_response = distribution_service.run(distribution);

  // The same circuit as an auto-planned observable request: the weaker
  // detector admits the fully golden cut, so fewer variants execute.
  CutRequest observable(circuit);
  observable.with_observable(zz_observable())
      .with_auto_plan()
      .with_golden(GoldenMode::DetectExact)
      .with_shots(1500);
  backend::StatevectorBackend observable_backend(5);
  service::CutService observable_service(observable_backend);
  const CutResponse observable_response = observable_service.run(observable);

  EXPECT_EQ(observable_response.data.total_jobs, 3u);
  EXPECT_LT(observable_response.data.total_jobs, distribution_response.data.total_jobs);
  EXPECT_LT(observable_service.stats().scheduler.executions,
            distribution_service.stats().scheduler.executions);

  // The pruned estimate is still correct: exact fragments reproduce the
  // true expectation through the single surviving basis string.
  CutRequest exact(circuit);
  exact.with_observable(zz_observable())
      .with_auto_plan()
      .with_golden(GoldenMode::DetectExact)
      .with_exact();
  backend::StatevectorBackend exact_backend(7);
  const CutResponse exact_response = run(exact, exact_backend);

  sim::StateVector sv(3);
  sv.apply_circuit(circuit);
  ASSERT_TRUE(exact_response.expectation.has_value());
  EXPECT_NEAR(*exact_response.expectation,
              sv.expectation_pauli(circuit::PauliString::parse("ZZI")), 1e-9);
}

}  // namespace
}  // namespace qcut::cutting
