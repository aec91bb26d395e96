// Micro benchmarks for the cutting pipeline: fragment execution fan-out and
// the reconstruction contraction, standard vs golden (google-benchmark).

#include <benchmark/benchmark.h>

#include "bench_json.hpp"
#include "common/stopwatch.hpp"
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include "backend/statevector_backend.hpp"
#include "circuit/random.hpp"
#include "cutting/pipeline.hpp"
#include "support/run_cut.hpp"

namespace {

using namespace qcut;

struct Fixture {
  circuit::GoldenAnsatz ansatz;
  cutting::FragmentGraph graph;
  cutting::ChainFragmentData data;

  static Fixture make(int num_qubits) {
    Rng rng(11);
    circuit::GoldenAnsatzOptions options;
    options.num_qubits = num_qubits;
    circuit::GoldenAnsatz ansatz = circuit::make_golden_ansatz(options, rng);
    const std::array<circuit::WirePoint, 1> cuts = {ansatz.cut};
    cutting::FragmentGraph graph = cutting::make_fragment_graph(ansatz.circuit, cuts);
    backend::StatevectorBackend backend(3);
    cutting::ExecutionOptions exec;
    exec.shots_per_variant = 1000;
    cutting::ChainFragmentData data =
        cutting::execute_chain(graph, cutting::ChainNeglectSpec::none(graph), backend, exec);
    return Fixture{std::move(ansatz), std::move(graph), std::move(data)};
  }
};

void BM_ReconstructStandard(benchmark::State& state) {
  const Fixture fixture = Fixture::make(static_cast<int>(state.range(0)));
  const cutting::ChainNeglectSpec spec = cutting::ChainNeglectSpec::none(fixture.graph);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        cutting::reconstruct_distribution(fixture.graph, fixture.data, spec).raw_probabilities
            .data());
  }
}
BENCHMARK(BM_ReconstructStandard)->Arg(5)->Arg(7)->Arg(9)->Arg(11);

void BM_ReconstructGolden(benchmark::State& state) {
  const Fixture fixture = Fixture::make(static_cast<int>(state.range(0)));
  cutting::NeglectSpec golden(1);
  golden.neglect(0, fixture.ansatz.golden_basis);
  const cutting::ChainNeglectSpec spec{{golden}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        cutting::reconstruct_distribution(fixture.graph, fixture.data, spec).raw_probabilities
            .data());
  }
}
BENCHMARK(BM_ReconstructGolden)->Arg(5)->Arg(7)->Arg(9)->Arg(11);

/// 3-fragment brick chain with `cuts` wires per boundary: qubits [0, cuts),
/// then all `width` qubits, then the top `cuts` qubits.
std::pair<circuit::Circuit, std::vector<std::vector<circuit::WirePoint>>> brick_chain(int width,
                                                                                     int cuts) {
  circuit::Circuit c(width);
  const auto cut_after = [&c](int q) {
    std::size_t last = 0;
    for (std::size_t i = 0; i < c.num_ops(); ++i) {
      if (c.op(i).acts_on(q)) last = i;
    }
    return circuit::WirePoint{q, last};
  };
  std::vector<std::vector<circuit::WirePoint>> boundaries(2);
  for (int q = 0; q < cuts; ++q) c.ry(0.3 + 0.1 * q, q);
  for (int q = 0; q + 1 < cuts; ++q) c.cx(q, q + 1);
  for (int q = 0; q < cuts; ++q) boundaries[0].push_back(cut_after(q));
  for (int layer = 0; layer < 3; ++layer) {
    for (int q = 0; q < width; ++q) c.ry(0.1 * (q + 1) + 0.7 * layer, q);
    for (int q = layer % 2; q + 1 < width; q += 2) c.cx(q, q + 1);
  }
  for (int q = width - cuts; q < width; ++q) boundaries[1].push_back(cut_after(q));
  for (int q = width - cuts; q < width; ++q) c.ry(0.9, q);
  for (int q = width - cuts; q + 1 < width; ++q) c.cx(q, q + 1);
  return {std::move(c), std::move(boundaries)};
}

/// Chain reconstruction on both sides of kMinParallelReconstructionWork
/// (work estimates: 12x1 about 2^17.6, 8x2 about 2^18.3, 10x2 about
/// 2^20.3), contracted on the global pool (threads = 0) or on a 1-worker
/// pool, which runs every chunk on the calling thread. Below the threshold
/// both run inline; above it the gap is the pool's wall-time gain.
void BM_ReconstructChain(benchmark::State& state) {
  const auto [c, boundaries] =
      brick_chain(static_cast<int>(state.range(0)), static_cast<int>(state.range(1)));
  const cutting::FragmentGraph graph = cutting::make_fragment_chain(c, boundaries);
  const cutting::ChainNeglectSpec spec = cutting::ChainNeglectSpec::none(graph);
  backend::StatevectorBackend backend(5);
  cutting::ExecutionOptions exec;
  exec.exact = true;
  const cutting::ChainFragmentData data = cutting::execute_chain(graph, spec, backend, exec);
  parallel::ThreadPool one(1);
  cutting::ReconstructionOptions options;
  if (state.range(2) == 1) options.pool = &one;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        cutting::reconstruct_distribution(graph, data, spec, options).raw_probabilities.data());
  }
}
BENCHMARK(BM_ReconstructChain)
    ->ArgNames({"width", "cuts", "threads"})
    ->Args({12, 1, 0})
    ->Args({12, 1, 1})
    ->Args({8, 2, 0})
    ->Args({8, 2, 1})
    ->Args({10, 2, 0})
    ->Args({10, 2, 1})
    ->UseRealTime();

void BM_FragmentExecutionStandard(benchmark::State& state) {
  Rng rng(12);
  circuit::GoldenAnsatzOptions options;
  options.num_qubits = 5;
  const circuit::GoldenAnsatz ansatz = circuit::make_golden_ansatz(options, rng);
  const std::array<circuit::WirePoint, 1> cuts = {ansatz.cut};
  const cutting::FragmentGraph graph = cutting::make_fragment_graph(ansatz.circuit, cuts);
  backend::StatevectorBackend backend(4);
  const cutting::ChainNeglectSpec spec = cutting::ChainNeglectSpec::none(graph);
  std::uint64_t stream = 0;
  for (auto _ : state) {
    cutting::ExecutionOptions exec;
    exec.shots_per_variant = 1000;
    exec.seed_stream_base = (stream++) << 16;
    benchmark::DoNotOptimize(
        cutting::execute_chain(graph, spec, backend, exec).total_jobs);
  }
}
BENCHMARK(BM_FragmentExecutionStandard);

void BM_FragmentExecutionGolden(benchmark::State& state) {
  Rng rng(12);
  circuit::GoldenAnsatzOptions options;
  options.num_qubits = 5;
  const circuit::GoldenAnsatz ansatz = circuit::make_golden_ansatz(options, rng);
  const std::array<circuit::WirePoint, 1> cuts = {ansatz.cut};
  const cutting::FragmentGraph graph = cutting::make_fragment_graph(ansatz.circuit, cuts);
  backend::StatevectorBackend backend(4);
  cutting::NeglectSpec golden(1);
  golden.neglect(0, ansatz.golden_basis);
  const cutting::ChainNeglectSpec spec{{golden}};
  std::uint64_t stream = 0;
  for (auto _ : state) {
    cutting::ExecutionOptions exec;
    exec.shots_per_variant = 1000;
    exec.seed_stream_base = (stream++) << 16;
    benchmark::DoNotOptimize(
        cutting::execute_chain(graph, spec, backend, exec).total_jobs);
  }
}
BENCHMARK(BM_FragmentExecutionGolden);

void BM_EndToEndCutAndRun(benchmark::State& state) {
  const bool golden = state.range(0) == 1;
  Rng rng(13);
  circuit::GoldenAnsatzOptions options;
  options.num_qubits = 5;
  const circuit::GoldenAnsatz ansatz = circuit::make_golden_ansatz(options, rng);
  const std::array<circuit::WirePoint, 1> cuts = {ansatz.cut};
  backend::StatevectorBackend backend(5);
  std::uint64_t stream = 0;
  for (auto _ : state) {
    cutting::CutRunOptions run;
    run.shots_per_variant = 1000;
    run.seed_stream_base = (stream++) << 16;
    if (golden) {
      run.golden_mode = cutting::GoldenMode::Provided;
      run.provided_spec = cutting::NeglectSpec(1);
      run.provided_spec->neglect(0, ansatz.golden_basis);
    }
    benchmark::DoNotOptimize(
        run_cut(ansatz.circuit, cuts, backend, run).reconstruction.terms);
  }
  state.SetLabel(golden ? "golden" : "standard");
}
BENCHMARK(BM_EndToEndCutAndRun)->Arg(0)->Arg(1);

void BM_ExactGoldenDetection(benchmark::State& state) {
  Rng rng(14);
  circuit::GoldenAnsatzOptions options;
  options.num_qubits = static_cast<int>(state.range(0));
  const circuit::GoldenAnsatz ansatz = circuit::make_golden_ansatz(options, rng);
  const std::array<circuit::WirePoint, 1> cuts = {ansatz.cut};
  const cutting::FragmentGraph graph = cutting::make_fragment_graph(ansatz.circuit, cuts);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cutting::detect_golden_exact(graph, 1e-9).violation.data());
  }
}
BENCHMARK(BM_ExactGoldenDetection)->Arg(5)->Arg(9)->Arg(13);

}  // namespace

namespace {

/// Parallel reconstruction: a 2-cut two-fragment graph (16 active terms
/// under the full spec) reconstructed on a 1-thread vs a `threads`-thread
/// pool. The
/// chunked accumulation is deterministic in the term count alone, so both
/// pools produce bit-for-bit identical distributions — only the wall clock
/// moves.
double parallel_reconstruction_speedup(int threads, double& serial_seconds_out,
                                       double& parallel_seconds_out) {
  using namespace qcut;
  Rng rng(17);
  circuit::MultiCutAnsatzOptions options;
  options.num_cuts = 2;
  options.block_width = 8;  // 17 qubits total: a 16-qubit upstream fragment
  options.downstream_depth = 2;
  const circuit::MultiCutAnsatz ansatz = circuit::make_multi_cut_golden_ansatz(options, rng);
  const cutting::FragmentGraph graph = cutting::make_fragment_graph(ansatz.circuit, ansatz.cuts);
  const cutting::ChainNeglectSpec spec = cutting::ChainNeglectSpec::none(graph);
  backend::StatevectorBackend backend(3);
  cutting::ExecutionOptions exec;
  exec.shots_per_variant = 1000;
  const cutting::ChainFragmentData data = cutting::execute_chain(graph, spec, backend, exec);

  constexpr int kRepeats = 10;
  parallel::ThreadPool serial_pool(1);
  parallel::ThreadPool parallel_pool(static_cast<unsigned>(threads));

  cutting::ReconstructionOptions serial_recon;
  serial_recon.pool = &serial_pool;
  Stopwatch serial_watch;
  for (int r = 0; r < kRepeats; ++r) {
    (void)cutting::reconstruct_distribution(graph, data, spec, serial_recon);
  }
  serial_seconds_out = serial_watch.elapsed_seconds() / kRepeats;

  cutting::ReconstructionOptions parallel_recon;
  parallel_recon.pool = &parallel_pool;
  Stopwatch parallel_watch;
  for (int r = 0; r < kRepeats; ++r) {
    (void)cutting::reconstruct_distribution(graph, data, spec, parallel_recon);
  }
  parallel_seconds_out = parallel_watch.elapsed_seconds() / kRepeats;
  return serial_seconds_out / parallel_seconds_out;
}

}  // namespace

/// Custom main: run the registered google-benchmark suites, then time one
/// representative standard-vs-golden reconstruction pair plus the 1-vs-4
/// thread parallel reconstruction for the BENCH_<name>.json trajectory file.
int main(int argc, char** argv) {
  using namespace qcut;
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  const Fixture fixture = Fixture::make(9);
  cutting::NeglectSpec golden_spec(1);
  golden_spec.neglect(0, fixture.ansatz.golden_basis);
  const cutting::ChainNeglectSpec golden{{golden_spec}};
  constexpr int kRepeats = 10;
  Stopwatch standard_watch;
  for (int r = 0; r < kRepeats; ++r) {
    (void)cutting::reconstruct_distribution(fixture.graph, fixture.data,
                                            cutting::ChainNeglectSpec::none(fixture.graph));
  }
  const double standard_seconds = standard_watch.elapsed_seconds() / kRepeats;
  Stopwatch golden_watch;
  for (int r = 0; r < kRepeats; ++r) {
    (void)cutting::reconstruct_distribution(fixture.graph, fixture.data, golden);
  }
  const double golden_seconds = golden_watch.elapsed_seconds() / kRepeats;

  constexpr int kParallelThreads = 4;
  double serial_seconds = 0.0;
  double parallel_seconds = 0.0;
  const double parallel_speedup =
      parallel_reconstruction_speedup(kParallelThreads, serial_seconds, parallel_seconds);

  (void)qcut::bench::write_bench_json(
      "micro_reconstruction", golden_seconds, standard_seconds / golden_seconds,
      {{"standard_seconds", standard_seconds},
       {"golden_seconds", golden_seconds},
       {"parallel_threads", static_cast<double>(kParallelThreads)},
       // A 4-thread pool can only beat a 1-thread pool when the machine has
       // the cores; record the hardware so the artifact is interpretable.
       {"hardware_threads", static_cast<double>(std::thread::hardware_concurrency())},
       {"recon_seconds_1thread", serial_seconds},
       {"recon_seconds_4threads", parallel_seconds},
       {"parallel_speedup_4threads", parallel_speedup}});
  return 0;
}
