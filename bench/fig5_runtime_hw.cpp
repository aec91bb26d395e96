// Figure 5 reproduction: circuit cutting runtime on (simulated) quantum
// hardware.
//
// Paper setup: 50 trials, 1000 shots per (sub)circuit, on IBM devices.
// Reported numbers: standard reconstruction 18.84 s vs golden 12.61 s mean
// per trial (a 33% reduction), attributable to executing 6 instead of 9
// circuits per trial - 3.0e5 instead of 4.5e5 total shots over 50 trials.
//
// We substitute a fake device whose timing model charges per-job overhead
// plus per-shot time (backend/fake_hardware.hpp); the per-trial device
// seconds and the total execution counts reproduce the paper's structure
// exactly.

#include <cstdio>
#include <iostream>
#include <span>

#include "backend/presets.hpp"
#include "circuit/random.hpp"
#include "common/table.hpp"
#include "cutting/pipeline.hpp"
#include "metrics/stats.hpp"
#include "bench_json.hpp"
#include "common/stopwatch.hpp"
#include "support/run_cut.hpp"

namespace {

constexpr int kTrials = 50;
constexpr std::size_t kShots = 1000;
}  // namespace

int main() {
  qcut::Stopwatch bench_timer;
  using namespace qcut;

  std::printf("Figure 5: circuit-cutting runtime on simulated IBM hardware\n");
  std::printf("(%d trials, %zu shots per (sub)circuit)\n\n", kTrials, kShots);

  Rng rng(505);
  circuit::GoldenAnsatzOptions options;
  options.num_qubits = 5;
  const circuit::GoldenAnsatz ansatz = circuit::make_golden_ansatz(options, rng);
  const std::array<circuit::WirePoint, 1> cuts = {ansatz.cut};

  Table table({"method", "device seconds/trial (95% CI)", "jobs/trial",
               "total circuit executions (shots)"});
  double standard_mean = 0.0, golden_mean = 0.0;

  for (const bool golden : {false, true}) {
    auto device = backend::make_fake_5q(606);
    std::vector<double> trial_seconds;
    std::uint64_t jobs_per_trial = 0;

    for (int trial = 0; trial < kTrials; ++trial) {
      cutting::CutRunOptions run;
      run.shots_per_variant = kShots;
      run.seed_stream_base = static_cast<std::uint64_t>(trial) << 24;
      if (golden) {
        run.golden_mode = cutting::GoldenMode::Provided;
        run.provided_spec = cutting::NeglectSpec(1);
        run.provided_spec->neglect(0, ansatz.golden_basis);
      }
      const cutting::CutResponse report =
          run_cut(ansatz.circuit, cuts, *device, run);
      trial_seconds.push_back(report.backend_delta.simulated_device_seconds);
      jobs_per_trial = report.backend_delta.jobs;
    }

    const metrics::Summary summary = metrics::summarize(trial_seconds);
    const std::uint64_t total_shots = device->stats().shots;
    table.add_row({golden ? "golden cutting" : "standard cutting",
                   format_pm(summary.mean, summary.ci95, 2), std::to_string(jobs_per_trial),
                   std::to_string(total_shots)});
    (golden ? golden_mean : standard_mean) = summary.mean;
  }

  std::cout << table;
  std::printf("\nPaper:     standard 18.84 s vs golden 12.61 s  (ratio 0.669, 4.5e5 -> 3.0e5 shots)\n");
  std::printf("Measured:  standard %.2f s vs golden %.2f s  (ratio %.3f)\n", standard_mean,
              golden_mean, golden_mean / standard_mean);
  std::printf("Speedup: %.1f%% of wall time avoided by neglecting one basis element.\n",
              100.0 * (1.0 - golden_mean / standard_mean));
  (void)qcut::bench::write_bench_json("fig5_runtime_hw", bench_timer.elapsed_seconds(),
                                      standard_mean / golden_mean,
                                      {{"standard_device_seconds", standard_mean},
                                       {"golden_device_seconds", golden_mean}});
  return 0;
}
