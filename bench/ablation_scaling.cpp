// Ablation: the complexity formulas of Section II-B.
//
// The paper states that with Kg golden cuts out of K, reconstruction cost
// scales as O(4^Kr 3^Kg) terms and circuit evaluations as O(6^Kr 4^Kg).
// This harness measures both counts (exactly) and the post-processing wall
// time on multi-cut circuits, sweeping K = 1..3 and Kg = 0..K.
//
// The multi-cut circuits use disjoint real upstream blocks per cut, so
// per-cut golden-Y holds exactly at every cut (the upstream state factorizes
// into one real state per cut, each with <O x Y> = 0).

#include <cstdio>
#include <iostream>
#include <span>

#include "backend/statevector_backend.hpp"
#include "circuit/random.hpp"
#include "common/stopwatch.hpp"
#include "common/table.hpp"
#include "cutting/pipeline.hpp"
#include "metrics/stats.hpp"
#include "sim/statevector.hpp"
#include "bench_json.hpp"
#include "support/run_cut.hpp"

namespace {

using namespace qcut;

}  // namespace

int main() {
  qcut::Stopwatch bench_timer;
  double standard_evals = 0.0, all_golden_evals = 0.0;
  double standard_ms = 0.0, all_golden_ms = 0.0;
  std::printf("Ablation: reconstruction terms and circuit evaluations vs (K, Kg)\n");
  std::printf("(formulas: terms = 4^Kr 3^Kg, evaluations = 3^Kr 2^Kg + 6^Kr 4^Kg)\n\n");

  Table table({"K", "Kg", "terms (measured)", "terms (formula)", "evals (measured)",
               "evals (formula)", "postprocess [ms]", "max |err| vs uncut"});

  for (int num_cuts = 1; num_cuts <= 3; ++num_cuts) {
    Rng rng(static_cast<std::uint64_t>(num_cuts) * 97);
    circuit::MultiCutAnsatzOptions ansatz_options;
    ansatz_options.num_cuts = num_cuts;
    const circuit::MultiCutAnsatz mc = circuit::make_multi_cut_golden_ansatz(ansatz_options, rng);

    sim::StateVector sv(mc.circuit.num_qubits());
    sv.apply_circuit(mc.circuit);
    const std::vector<double> truth = sv.probabilities();

    for (int golden_cuts = 0; golden_cuts <= num_cuts; ++golden_cuts) {
      cutting::NeglectSpec spec(num_cuts);
      for (int k = 0; k < golden_cuts; ++k) spec.neglect(k, linalg::Pauli::Y);

      backend::StatevectorBackend backend(33);
      cutting::CutRunOptions run;
      run.exact = true;
      run.golden_mode = cutting::GoldenMode::Provided;
      run.provided_spec = spec;

      // Time the reconstruction over repeated runs for a stable estimate.
      const cutting::CutResponse report =
          run_cut(mc.circuit, mc.cuts, backend, run);

      const cutting::ChainNeglectSpec chain_spec{{spec}};
      constexpr int kRepeats = 20;
      Stopwatch watch;
      for (int r = 0; r < kRepeats; ++r) {
        (void)cutting::reconstruct_distribution(report.graph, report.data, chain_spec);
      }
      const double postprocess_ms = watch.elapsed_seconds() * 1e3 / kRepeats;

      double max_error = 0.0;
      for (std::size_t i = 0; i < truth.size(); ++i) {
        max_error = std::max(max_error,
                             std::abs(report.reconstruction.raw_probabilities[i] - truth[i]));
      }

      std::uint64_t formula_terms = 1, formula_up = 1, formula_down = 1;
      for (int k = 0; k < num_cuts; ++k) {
        formula_terms *= (k < golden_cuts) ? 3 : 4;
        formula_up *= (k < golden_cuts) ? 2 : 3;
        formula_down *= (k < golden_cuts) ? 4 : 6;
      }

      table.add_row({std::to_string(num_cuts), std::to_string(golden_cuts),
                     std::to_string(report.reconstruction.terms),
                     std::to_string(formula_terms), std::to_string(report.data.total_jobs),
                     std::to_string(formula_up + formula_down),
                     qcut::format_double(postprocess_ms, 3),
                     qcut::format_double(max_error, 12)});
      if (golden_cuts == 0) {
        standard_evals = static_cast<double>(report.data.total_jobs);
        standard_ms = postprocess_ms;
      }
      if (golden_cuts == num_cuts) {
        all_golden_evals = static_cast<double>(report.data.total_jobs);
        all_golden_ms = postprocess_ms;
      }
    }
  }
  std::cout << table;
  std::printf(
      "\nEvery golden cut multiplies terms by 3/4 and evaluations by roughly 2/3;\n"
      "reconstruction stays exact (max error ~ 1e-12) because the neglected\n"
      "terms are identically zero for these circuits.\n");
  // speedup key: standard/all-golden circuit evaluations at the deepest cut
  // count (the paper's (6/4)^K execution saving).
  (void)qcut::bench::write_bench_json(
      "ablation_scaling", bench_timer.elapsed_seconds(), standard_evals / all_golden_evals,
      {{"standard_evaluations", standard_evals},
       {"all_golden_evaluations", all_golden_evals},
       {"standard_postprocess_ms", standard_ms},
       {"all_golden_postprocess_ms", all_golden_ms}});
  return 0;
}
