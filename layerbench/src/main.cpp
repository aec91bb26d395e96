// Layer-attributed benchmark of the cutting service.
//
//   layerbench --workload <paper_fig4|chain12_cold|qaoa_repeat> --seed <n>
//              --seconds <s> --trace <0|1> [--out <dir>]
//
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1 is
// the separate traced run that gives the per-layer metrics. Both check every
// response for correctness, print a human-readable table with units and
// sample counts, and end stdout with one JSON result line. Any failed job
// makes the exit code nonzero.

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "cutting/reconstructor.hpp"
#include "harness.hpp"
#include "machine.hpp"
#include "report.hpp"
#include "sim/device.hpp"
#include "telemetry/metrics.hpp"

namespace layerbench {
namespace {

namespace cutting = qcut::cutting;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir;
};

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--out") {
      args.out_dir = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (args.workload.empty()) throw std::invalid_argument("--workload is required");
  if (!(args.seconds > 0.0)) throw std::invalid_argument("--seconds must be positive");
  return args;
}

void print_context(const Args& args, const Instance& in) {
  const MachineContext context = read_machine_context(in.backend->identity());
  std::cout << "layerbench " << args.workload << " seed=" << args.seed
            << " seconds=" << args.seconds << " trace=" << (args.trace ? 1 : 0) << "\n"
            << "  workload: " << in.workload->describe() << "\n"
            << "  machine: " << context.to_json() << "\n";
  if (!args.out_dir.empty()) {
    std::ofstream out(args.out_dir + "/context_" + args.workload + ".json");
    out << "{\"workload\": " << json_string(args.workload) << ", \"seed\": " << args.seed
        << ", \"describe\": " << json_string(in.workload->describe())
        << ", \"machine\": " << context.to_json() << "}\n";
  }
}

/// Prints `metrics` and `reported` as a table and ends stdout with the
/// result line, which carries `metrics` only: the figures BENCHMARK.json
/// names. `reported` are measured and shown but not part of the result.
int finish(std::uint64_t failed, std::uint64_t attempted, const std::vector<Metric>& metrics,
           const std::vector<Metric>& reported = {}) {
  bool finite = true;
  for (const Metric& metric : metrics) finite = finite && std::isfinite(metric.value);
  if (!finite) {
    std::cerr << "FAIL: a metric is not a finite number\n";
    ++failed;
  }
  print_table(std::cout, metrics);
  if (!reported.empty()) {
    std::cout << "  measured, not in the result line (see README):\n";
    print_table(std::cout, reported);
  }
  std::cout << result_json(failed == 0, std::max<std::uint64_t>(attempted, 1), failed, metrics)
            << std::endl;
  return failed == 0 ? EXIT_SUCCESS : EXIT_FAILURE;
}

// ---- Timed run (--trace 0) ----------------------------------------------------
//
// The timed run is a sequence of epochs, each in a fresh child process:
// set-up, then a fixed number of timed jobs. Every epoch therefore starts
// from the same process state (the metrics registry, for one, grows with
// every service built), and each end-to-end metric is the median of its
// per-epoch values; job_p99_ms and latency_drift pool the jobs of all
// epochs. Epochs continue while another one still fits in --seconds.
//
// The result line carries the figures that a shared host lets a run
// reproduce: CPU time (set-up and per job), ratios of latencies taken in
// the same epoch, memory and the share of correct jobs. Wall-clock
// throughput and latency are measured and printed, but kept out of the
// result line: on a virtual machine whose host lends its cores to other
// tenants, they follow the neighbours' load (see README).

struct Sample {
  std::uint64_t index = 0;
  Mode mode = Mode::Standard;
  std::uint64_t start_ns = 0;
  double latency_ms = 0.0;
};

/// Appends one line per timed job, for looking at a run beyond its summary.
void append_samples(const std::string& path, std::uint64_t epoch,
                    const std::vector<Sample>& samples) {
  std::ofstream out(path, std::ios::app);
  std::uint64_t origin = UINT64_MAX;
  for (const Sample& s : samples) origin = std::min(origin, s.start_ns);
  for (const Sample& s : samples) {
    out << epoch << "," << s.index << "," << (s.mode == Mode::Golden ? 1 : 0) << ","
        << static_cast<double>(s.start_ns - origin) * 1e-6 << "," << s.latency_ms << "\n";
  }
}

/// One epoch's end-to-end figures, as sent from the child to the parent.
struct Epoch {
  double setup_cpu_s = 0, setup_wall_s = 0;
  double jobs_per_s = 0, p50_ms = 0, p99_ms = 0, cpu_per_job_ms = 0;
  double golden_ratio = 0, drift = 0, peak_rss_mb = 0, worst_tolerance_share = 0;
  double jobs = 0, attempted = 0, failed = 0;
  std::vector<double> latencies_ms;
};

/// Timed jobs per epoch: ten samples lie beyond each epoch's p99.
constexpr std::uint64_t kEpochJobs = 1000;

/// The line a child sends its parent: "epoch" and the thirteen Epoch
/// fields, followed by one line per job latency.
constexpr const char* kEpochWrite =
    "epoch %.17g %.17g %.17g %.17g %.17g %.17g %.17g %.17g %.17g %.17g %.17g %.17g %.17g\n";
constexpr const char* kEpochRead = "epoch %lf %lf %lf %lf %lf %lf %lf %lf %lf %lf %lf %lf %lf";
constexpr int kEpochFields = 13;

/// Runs epoch `epoch` in this (child) process and writes its figures to `fd`.
int measure_epoch(const Args& args, std::uint64_t epoch, int fd) {
  FailureLog failures;
  std::uint64_t attempted = 0;
  const double setup_cpu0 = process_cpu_seconds();
  const std::uint64_t setup_start = now_ns();
  std::unique_ptr<Instance> instance = set_up(args.workload, args.seed, false, failures);
  const double setup_wall_s = static_cast<double>(now_ns() - setup_start) * 1e-9;
  const double setup_cpu_s = process_cpu_seconds() - setup_cpu0;
  Instance& in = *instance;
  attempted += in.warmup_jobs;
  if (epoch == 0) print_context(args, in);

  const int clients = in.workload->clients();
  const std::uint64_t count = kEpochJobs;
  std::vector<std::vector<Sample>> samples(static_cast<std::size_t>(clients));
  // CPU the clients spend generating inputs and checking results; it is
  // the benchmark's, not the library's, and is subtracted.
  std::vector<double> bench_cpu(static_cast<std::size_t>(clients), 0.0);
  std::atomic<std::uint64_t> next{epoch * count};
  const LoopRule rule{.end_index = (epoch + 1) * count};
  const double cpu_start = process_cpu_seconds();
  const double wall = run_closed_loop(clients, next, rule, [&](int c, std::uint64_t i) {
    const auto cu = static_cast<std::size_t>(c);
    double cpu = thread_cpu_seconds();
    const Job job = in.workload->job(i);
    qcut::CutRequest request = job.request;
    bench_cpu[cu] += thread_cpu_seconds() - cpu;
    try {
      const std::uint64_t start = now_ns();
      const qcut::CutResponse response = in.executor->run(std::move(request));
      const double ms = static_cast<double>(now_ns() - start) * 1e-6;
      cpu = thread_cpu_seconds();
      const std::string why = in.checker->check(job, response);
      bench_cpu[cu] += thread_cpu_seconds() - cpu;
      samples[cu].push_back(Sample{i, job.mode, start, ms});
      if (!why.empty()) failures.record("job " + std::to_string(i) + ": " + why);
    } catch (const std::exception& e) {
      failures.record("job " + std::to_string(i) + " threw: " + e.what());
    }
  });
  double library_cpu = process_cpu_seconds() - cpu_start;
  for (double c : bench_cpu) library_cpu -= c;
  attempted += count;

  std::vector<Sample> all;
  for (const auto& per_client : samples) {
    all.insert(all.end(), per_client.begin(), per_client.end());
  }
  std::sort(all.begin(), all.end(),
            [](const Sample& a, const Sample& b) { return a.index < b.index; });
  if (!args.out_dir.empty()) {
    append_samples(args.out_dir + "/samples_" + args.workload + ".csv", epoch, all);
  }
  std::vector<double> latencies, standard, golden;
  for (const Sample& s : all) {
    latencies.push_back(s.latency_ms);
    (s.mode == Mode::Golden ? golden : standard).push_back(s.latency_ms);
  }
  const std::optional<double> tail = p99(latencies);
  if (!tail) failures.record("fewer than 1000 jobs completed in an epoch");
  failures.print(args.workload, args.seed);

  Epoch out;
  out.setup_cpu_s = setup_cpu_s;
  out.setup_wall_s = setup_wall_s;
  out.jobs = static_cast<double>(latencies.size());
  out.jobs_per_s = out.jobs / wall;
  out.p50_ms = median(latencies);
  out.p99_ms = tail.value_or(0.0);
  out.cpu_per_job_ms = 1e3 * library_cpu / std::max(1.0, out.jobs);
  out.golden_ratio = median(golden) / median(standard);
  out.drift = drift(latencies);
  out.peak_rss_mb = peak_rss_mib();
  out.worst_tolerance_share = in.checker->worst_tolerance_share();
  out.attempted = static_cast<double>(attempted);
  out.failed = static_cast<double>(failures.count());
  std::cout << std::flush;
  int written =
      dprintf(fd, kEpochWrite, out.setup_cpu_s, out.setup_wall_s, out.jobs_per_s, out.p50_ms,
              out.p99_ms, out.cpu_per_job_ms, out.golden_ratio, out.drift, out.peak_rss_mb,
              out.worst_tolerance_share, out.jobs, out.attempted, out.failed);
  for (double ms : latencies) written = std::min(written, dprintf(fd, "%.17g\n", ms));
  return written > 0 ? EXIT_SUCCESS : EXIT_FAILURE;
}

/// Forks a child that runs epoch `epoch`; empty when the child failed.
/// The parent never touches the library, so it has no threads to lose in
/// the fork and every child starts from a pristine process.
std::optional<Epoch> run_epoch_in_child(const Args& args, std::uint64_t epoch) {
  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) return std::nullopt;
  std::cout << std::flush;
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(pipe_fds[0]);
    ::close(pipe_fds[1]);
    return std::nullopt;
  }
  if (pid == 0) {
    ::close(pipe_fds[0]);
    int code = EXIT_FAILURE;
    try {
      code = measure_epoch(args, epoch, pipe_fds[1]);
    } catch (const std::exception& e) {
      std::cerr << "layerbench: epoch " << epoch << ": " << e.what() << "\n";
    }
    std::cout << std::flush;
    std::cerr << std::flush;
    ::_exit(code);
  }
  ::close(pipe_fds[1]);
  std::string text;
  char buffer[512];
  for (ssize_t n; (n = ::read(pipe_fds[0], buffer, sizeof buffer)) != 0;) {
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) break;
    text.append(buffer, static_cast<std::size_t>(n));
  }
  ::close(pipe_fds[0]);
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  Epoch e;
  const int fields = std::sscanf(text.c_str(), kEpochRead, &e.setup_cpu_s, &e.setup_wall_s,
                                 &e.jobs_per_s, &e.p50_ms, &e.p99_ms, &e.cpu_per_job_ms,
                                 &e.golden_ratio, &e.drift, &e.peak_rss_mb,
                                 &e.worst_tolerance_share, &e.jobs, &e.attempted, &e.failed);
  if (!WIFEXITED(status) || WEXITSTATUS(status) != EXIT_SUCCESS || fields != kEpochFields) {
    return std::nullopt;
  }
  std::istringstream lines(text.substr(text.find('\n') + 1));
  for (double ms; lines >> ms;) e.latencies_ms.push_back(ms);
  return e;
}

int timed_run(const Args& args) {
  if (!args.out_dir.empty()) {
    std::ofstream(args.out_dir + "/samples_" + args.workload + ".csv")
        << "epoch,index,golden,start_ms,latency_ms\n";
  }
  std::vector<Epoch> epochs;
  bool child_failed = false;
  const std::uint64_t start = now_ns();
  double longest_epoch_s = 0.0;
  const auto elapsed_s = [start] { return static_cast<double>(now_ns() - start) * 1e-9; };
  while (epochs.empty() || elapsed_s() + longest_epoch_s <= args.seconds) {
    const double epoch_start = elapsed_s();
    const std::optional<Epoch> epoch = run_epoch_in_child(args, epochs.size());
    if (!epoch) {
      child_failed = true;
      break;
    }
    epochs.push_back(*epoch);
    longest_epoch_s = std::max(longest_epoch_s, elapsed_s() - epoch_start);
  }

  const auto per_epoch = [&](double Epoch::*field) {
    std::vector<double> values;
    for (const Epoch& e : epochs) values.push_back(e.*field);
    return median(values);
  };
  double attempted = 0, failed = child_failed ? 1 : 0, jobs = 0, worst = 0;
  std::vector<double> pooled;
  std::vector<std::vector<double>> in_order;
  for (const Epoch& e : epochs) {
    in_order.push_back(e.latencies_ms);
    attempted += e.attempted;
    failed += e.failed;
    jobs += e.jobs;
    worst = std::max(worst, e.worst_tolerance_share);
    pooled.insert(pooled.end(), e.latencies_ms.begin(), e.latencies_ms.end());
  }
  // The p99 pools every epoch's jobs: one epoch leaves only ten samples
  // beyond its p99, too few for a steady tail. latency_drift pools the
  // epochs' first tenths and their last tenths: a hundred jobs a side is
  // too few for a steady median.
  const std::optional<double> pooled_p99 = p99(pooled);
  if (!pooled_p99) ++failed;
  std::cout << "  per epoch: jobs/s p50_ms p99_ms cpu_per_job_ms golden_ratio drift setup_s "
               "setup_wall_s\n";
  for (const Epoch& e : epochs) {
    std::cout << "    " << e.jobs_per_s << " " << e.p50_ms << " " << e.p99_ms << " "
              << e.cpu_per_job_ms << " " << e.golden_ratio << " " << e.drift << " "
              << e.setup_cpu_s << " " << e.setup_wall_s << "\n";
  }
  const auto n = static_cast<std::uint64_t>(jobs);
  const auto k = static_cast<std::uint64_t>(epochs.size());
  std::cout << "  epochs: " << k << ", timed jobs: " << n
            << "; each metric but job_p99_ms and latency_drift is the median of its per-epoch"
               " values\n"
            << "  worst TVD to exact, as a share of its tolerance: " << worst << "\n";
  if (child_failed) std::cerr << "FAIL: an epoch's child process failed\n";

  const std::vector<Metric> metrics = {
      {"setup_s", per_epoch(&Epoch::setup_cpu_s), "s", k},
      {"cpu_per_job_ms", per_epoch(&Epoch::cpu_per_job_ms), "ms", n},
      {"golden_time_ratio", per_epoch(&Epoch::golden_ratio), "ratio", n},
      {"latency_drift", pooled_drift(in_order), "ratio", n},
      {"peak_rss_mb", per_epoch(&Epoch::peak_rss_mb), "MiB", k},
      {"ok_ratio", attempted > 0 ? (attempted - failed) / attempted : 0.0, "ratio",
       static_cast<std::uint64_t>(attempted)},
  };
  const std::vector<Metric> reported = {
      {"setup_wall_s", per_epoch(&Epoch::setup_wall_s), "s", k},
      {"jobs_per_s", per_epoch(&Epoch::jobs_per_s), "jobs/s", n},
      {"job_p50_ms", per_epoch(&Epoch::p50_ms), "ms", n},
      {"job_p99_ms", pooled_p99.value_or(0.0), "ms", pooled.size()},
  };
  return finish(static_cast<std::uint64_t>(failed), static_cast<std::uint64_t>(attempted),
                metrics, reported);
}

// ---- Traced run (--trace 1) ---------------------------------------------------

/// Per-layer work of the traced jobs, summed.
struct LayerTotals {
  std::uint64_t jobs = 0;
  double resolve_ms = 0, graph_ms = 0, detect_ms = 0, variants_ms = 0, reconstruct_ms = 0;
  double compile_ms = 0, apply_ms = 0, probabilities_ms = 0;
  double reconstruct_cpu_s = 0;
  std::uint64_t detections = 0;
  std::uint64_t variants_required = 0, variants_standard = 0, prefix_groups = 0, terms = 0;
  std::uint64_t source_ops = 0, fused_absorbed = 0;
  double bytes_computed = 0;
};

/// Times calls into each layer's public functions on one traced job's own
/// inputs and response, recording one span per call under a "replay" span
/// parented to the job span. `executed` is how many variant circuits the
/// backend ran for the job; the sim replay re-runs that many through a
/// device configured like the backend's. Returns a mismatch description
/// when the replayed reconstruction differs from the response's.
std::string replay_layers(const Job& job, const qcut::CutResponse& response,
                          std::uint64_t executed, const qcut::sim::Device& device,
                          SpanRecorder& spans, std::int64_t job_span, LayerTotals& totals) {
  std::vector<Span> children;
  const std::uint32_t lane = thread_lane();
  const auto timed = [&](const char* name, auto&& fn) {
    const std::uint64_t start = now_ns();
    fn();
    const std::uint64_t end = now_ns();
    children.push_back(Span{name, start, end, kNoParent, job.tag, lane, 0});
    return static_cast<double>(end - start) * 1e-6;
  };
  const std::uint64_t replay_start = now_ns();

  cutting::ResolvedRequest resolved;
  totals.resolve_ms += timed("request.resolve", [&] { resolved = cutting::resolve(job.request); });
  cutting::FragmentGraph graph;
  totals.graph_ms += timed("fragment_graph.build", [&] {
    graph = cutting::make_fragment_chain(resolved.circuit, resolved.boundaries);
  });
  if (job.request.options.golden_mode == cutting::GoldenMode::DetectExact) {
    ++totals.detections;
    totals.detect_ms += timed("golden.detect", [&] {
      (void)cutting::detect_chain_golden_specs(resolved.circuit, resolved.boundaries,
                                               job.request.options.golden_tol);
    });
  }

  // The service's wave order: fragment by fragment, keys ascending.
  std::vector<qcut::circuit::Circuit> circuits;
  std::size_t groups = 0;
  totals.variants_ms += timed("variants.build", [&] {
    for (int f = 0; f < response.graph.num_fragments(); ++f) {
      for (const cutting::FragmentVariantKey key :
           cutting::required_fragment_variants(response.graph, f, response.specs)) {
        circuits.push_back(cutting::make_fragment_variant(response.graph, f, key).circuit);
      }
    }
    std::vector<const qcut::circuit::Circuit*> pointers;
    for (const auto& c : circuits) pointers.push_back(&c);
    groups = cutting::group_by_shared_prefix(pointers).size();
  });
  totals.variants_required += circuits.size();
  totals.variants_standard +=
      cutting::count_chain_variants(response.graph,
                                    cutting::ChainNeglectSpec::none(response.graph))
          .total();
  totals.prefix_groups += groups;

  cutting::ReconstructionResult replayed;
  const double reconstruct_cpu0 = process_cpu_seconds();
  totals.reconstruct_ms += timed("reconstruct", [&] {
    replayed = cutting::reconstruct_distribution(response.graph, response.data, response.specs);
  });
  totals.reconstruct_cpu_s += process_cpu_seconds() - reconstruct_cpu0;
  totals.terms += response.reconstruction.terms;

  const std::size_t replays = std::min<std::size_t>(executed, circuits.size());
  std::vector<double> probabilities;
  for (std::size_t v = 0; v < replays; ++v) {
    std::unique_ptr<qcut::sim::CompiledProgram> program;
    totals.compile_ms += timed("sim.compile", [&] { program = device.compile(circuits[v]); });
    std::unique_ptr<qcut::sim::DeviceState> state;
    totals.apply_ms += timed("sim.apply", [&] {
      state = device.create_state(circuits[v].num_qubits());
      device.apply(*program, *state);
    });
    totals.probabilities_ms +=
        timed("sim.probabilities", [&] { device.probabilities(*state, probabilities); });
    const qcut::sim::ProgramSummary summary = program->summary();
    totals.source_ops += summary.source_ops;
    totals.fused_absorbed += summary.fused_absorbed;
    // Computed, not measured: one pass over 2^n complex<double> per op.
    totals.bytes_computed += static_cast<double>(summary.compiled_ops) *
                             std::ldexp(16.0, circuits[v].num_qubits());
  }
  ++totals.jobs;

  const std::int64_t root =
      spans.add(Span{"replay", replay_start, now_ns(), job_span, job.tag, lane, 0});
  for (Span& child : children) {
    child.parent = root;
    spans.add(std::move(child));
  }
  if (!bit_identical(replayed.raw_probabilities, response.reconstruction.raw_probabilities)) {
    return "replayed reconstruction differs from the response";
  }
  return {};
}

/// Median milliseconds of `count` calls of `fn`.
template <typename Fn>
double median_ms(int count, Fn&& fn) {
  std::vector<double> ms;
  for (int i = 0; i < count; ++i) {
    const std::uint64_t start = now_ns();
    fn();
    ms.push_back(static_cast<double>(now_ns() - start) * 1e-6);
  }
  return median(ms);
}

/// One closed-loop pass over the jobs [base, base + count).
struct Block {
  std::vector<std::optional<qcut::CutResponse>> responses;
  std::vector<std::uint64_t> start_ns, end_ns;
  std::vector<std::uint32_t> lane;
  double wall_seconds = 0.0;
};

Block run_block(Instance& in, Executor& executor, std::uint64_t base, std::uint64_t count,
                FailureLog& failures) {
  Block block;
  block.responses.resize(count);
  block.start_ns.assign(count, 0);
  block.end_ns.assign(count, 0);
  block.lane.assign(count, 0);
  std::atomic<std::uint64_t> next{base};
  const LoopRule rule{.end_index = base + count};
  block.wall_seconds =
      run_closed_loop(in.workload->clients(), next, rule, [&](int, std::uint64_t i) {
        const std::size_t slot = i - base;
        const Job job = in.workload->job(i);
        try {
          block.lane[slot] = thread_lane();
          block.start_ns[slot] = now_ns();
          block.responses[slot] = executor.run(job.request);
          block.end_ns[slot] = now_ns();
        } catch (const std::exception& e) {
          failures.record("job " + std::to_string(i) + " threw: " + e.what());
        }
      });
  return block;
}

int traced_run(const Args& args) {
  FailureLog failures;
  std::uint64_t attempted = 0;
  std::unique_ptr<Instance> instance = set_up(args.workload, args.seed, true, failures);
  Instance& in = *instance;
  attempted += in.warmup_jobs;
  print_context(args, in);
  auto& registry = qcut::telemetry::MetricsRegistry::global();
  const int clients = in.workload->clients();

  // What every qcut::run pays: one service built and torn down. Timed at
  // the start and at the end of the run.
  std::vector<double> construct_ms;
  const auto time_constructions = [&] {
    for (int k = 0; k < 16; ++k) {
      const std::uint64_t start = now_ns();
      {
        qcut::service::CutServiceOptions options;
        options.cache_capacity = 0;
        qcut::service::CutService service(*in.backend, options);
      }
      construct_ms.push_back(static_cast<double>(now_ns() - start) * 1e-6);
    }
  };
  time_constructions();

  // Counter phase, untraced: pool, cache and dedup counts are registry
  // deltas, which the traced phase's replays would disturb. Its job
  // latencies give the wall-clock figures the timed run keeps out of its
  // result line.
  qcut::telemetry::MetricsSnapshot before;
  const double snapshot_start_ms = median_ms(3, [&] { before = registry.snapshot(); });
  std::atomic<std::uint64_t> next{0};
  std::atomic<std::uint64_t> counted{0};
  std::vector<std::vector<double>> counter_ms(static_cast<std::size_t>(clients));
  const double counter_cpu0 = process_cpu_seconds();
  const double counter_wall = run_closed_loop(
      clients, next, LoopRule{.seconds = 0.25 * args.seconds},
      [&](int c, std::uint64_t i) {
        const Job job = in.workload->job(i);
        try {
          const std::uint64_t start = now_ns();
          const qcut::CutResponse response = in.executor->run(job.request);
          counter_ms[static_cast<std::size_t>(c)].push_back(
              static_cast<double>(now_ns() - start) * 1e-6);
          counted.fetch_add(1);
          const std::string why = in.checker->check(job, response);
          if (!why.empty()) failures.record("job " + std::to_string(i) + ": " + why);
        } catch (const std::exception& e) {
          failures.record("job " + std::to_string(i) + " threw: " + e.what());
        }
      });
  const double counter_cpu = process_cpu_seconds() - counter_cpu0;
  const qcut::telemetry::MetricsSnapshot after = registry.snapshot();
  attempted += next.load();
  const auto counter_jobs = counted.load();
  std::vector<double> counter_latencies;
  for (const auto& per_client : counter_ms) {
    counter_latencies.insert(counter_latencies.end(), per_client.begin(), per_client.end());
  }
  const double per_counted = 1.0 / std::max<double>(1.0, static_cast<double>(counter_jobs));
  const auto delta = [&](const char* name) {
    return static_cast<double>(after.counter_value(name) - before.counter_value(name));
  };

  // Traced phase, in blocks: each block of jobs runs untraced and traced
  // (alternating which pass goes first, so per-call cost growth is charged
  // to both) on the same inputs and seeds, and the two results must be
  // bit-identical. Then every traced response is replayed layer by layer
  // with nothing else running.
  const std::unique_ptr<qcut::sim::Device> device =
      qcut::sim::make_cpu_device(in.backend->engine_options());
  const std::uint64_t block_size = clients > 1 ? 32 : 64;
  LayerTotals totals;
  std::vector<double> traced_ms, untraced_ms;
  double wall_untraced = 0.0, wall_traced = 0.0;
  const std::uint64_t traced_phase_start = now_ns();
  for (std::uint64_t b = 0;
       b == 0 || static_cast<double>(now_ns() - traced_phase_start) * 1e-9 < 0.75 * args.seconds;
       ++b) {
    const std::uint64_t base = next.fetch_add(block_size);
    attempted += 2 * block_size;
    Block untraced, traced;
    if (b % 2 == 0) {
      untraced = run_block(in, *in.executor, base, block_size, failures);
      traced = run_block(in, *in.traced, base, block_size, failures);
    } else {
      traced = run_block(in, *in.traced, base, block_size, failures);
      untraced = run_block(in, *in.executor, base, block_size, failures);
    }
    wall_untraced += untraced.wall_seconds;
    wall_traced += traced.wall_seconds;

    for (std::uint64_t slot = 0; slot < block_size; ++slot) {
      if (!untraced.responses[slot] || !traced.responses[slot]) continue;
      const std::uint64_t i = base + slot;
      const Job job = in.workload->job(i);
      const qcut::CutResponse& response = *traced.responses[slot];
      traced_ms.push_back(static_cast<double>(traced.end_ns[slot] - traced.start_ns[slot]) * 1e-6);
      untraced_ms.push_back(
          static_cast<double>(untraced.end_ns[slot] - untraced.start_ns[slot]) * 1e-6);
      const std::int64_t job_span = in.spans->add(Span{"job", traced.start_ns[slot],
                                                       traced.end_ns[slot], kNoParent, job.tag,
                                                       traced.lane[slot], 0});
      std::string why = in.checker->check(job, *untraced.responses[slot]);
      if (why.empty() && !bit_identical(untraced.responses[slot]->reconstruction.raw_probabilities,
                                        response.reconstruction.raw_probabilities)) {
        why = "traced result differs from the untraced result";
      }
      if (why.empty()) {
        why = replay_layers(job, response, in.timed_backend->take_circuits(job.tag), *device,
                            *in.spans, job_span, totals);
      }
      if (!why.empty()) failures.record("job " + std::to_string(i) + ": " + why);
    }
  }
  time_constructions();
  const double snapshot_end_ms = median_ms(3, [&] { (void)registry.snapshot(); });

  // Attribute backend spans to their jobs; a job's self time is what the
  // backend did not cover.
  std::vector<Span> spans = in.spans->take();
  const std::size_t orphans = attribute_to_requests(spans, "job");
  const std::vector<std::uint64_t> self = self_times(spans);
  double busy_ms = 0, covered_ms = 0, latency_ms = 0;
  std::uint64_t calls = 0, executed = 0;
  for (std::size_t s = 0; s < spans.size(); ++s) {
    const Span& span = spans[s];
    if (span.name == "job") {
      latency_ms += static_cast<double>(span.duration_ns()) * 1e-6;
      covered_ms += static_cast<double>(span.duration_ns() - self[s]) * 1e-6;
    } else if (span.name.starts_with("backend.") && span.parent != kNoParent) {
      busy_ms += static_cast<double>(span.duration_ns()) * 1e-6;
      ++calls;
      executed += span.items;
    }
  }
  if (!args.out_dir.empty()) {
    const std::string path = args.out_dir + "/trace_" + args.workload + ".json";
    if (write_chrome_trace(path, spans)) std::cout << "  chrome trace: " << path << "\n";
  }

  const std::uint64_t n = totals.jobs;
  const double per_job = 1.0 / std::max<double>(1.0, static_cast<double>(n));
  const double p50 = median(traced_ms);
  const double attributed_ms = per_job * (covered_ms + totals.resolve_ms + totals.graph_ms +
                                          totals.detect_ms + totals.variants_ms +
                                          totals.reconstruct_ms);
  const double lookups = delta("cache.hits") + delta("cache.misses");
  const auto workers = static_cast<double>(qcut::parallel::ThreadPool::global().size());
  const auto ratio = [](double num, double den) { return den > 0.0 ? num / den : 0.0; };

  std::cout << "  traced jobs: " << n << ", backend spans unattributed: " << orphans << "\n"
            << "  p50 traced job " << p50 << " ms = backend wall " << per_job * covered_ms
            << " + resolve " << per_job * totals.resolve_ms << " + fragment graph "
            << per_job * totals.graph_ms << " + golden detect " << per_job * totals.detect_ms
            << " + variants " << per_job * totals.variants_ms << " + reconstruct "
            << per_job * totals.reconstruct_ms << " + service overhead " << p50 - attributed_ms
            << " (ms per job)\n";

  const std::vector<Metric> metrics = {
      {"service.construct_ms", median(construct_ms), "ms", construct_ms.size()},
      {"service.overhead_ms_per_job", p50 - attributed_ms, "ms", n},
      {"service.cache_hit_ratio", ratio(delta("cache.hits"), lookups), "ratio",
       static_cast<std::uint64_t>(lookups)},
      {"service.cache_lookups_per_job", lookups * per_counted, "count", counter_jobs},
      {"service.dedup_joins_per_job", delta("scheduler.dedup_joins") * per_counted, "count",
       counter_jobs},
      {"telemetry.snapshot_start_ms", snapshot_start_ms, "ms", 3},
      {"telemetry.snapshot_ms", snapshot_end_ms, "ms", 3},
      {"pool.tasks_per_job", delta("pool.tasks") * per_counted, "count", counter_jobs},
      {"pool.busy_ratio", ratio(counter_cpu, counter_wall * workers), "ratio", counter_jobs},
      {"backend.busy_ms_per_job", per_job * busy_ms, "ms", n},
      {"backend.wall_ms_per_job", per_job * covered_ms, "ms", n},
      {"backend.calls_per_job", per_job * static_cast<double>(calls), "count", n},
      {"backend.share", ratio(busy_ms, latency_ms), "ratio", n},
      {"sim.compile_ms", per_job * totals.compile_ms, "ms", n},
      {"sim.apply_ms", per_job * totals.apply_ms, "ms", n},
      {"sim.sample_ms", per_job * totals.probabilities_ms, "ms", n},
      {"sim.fused_fraction",
       ratio(static_cast<double>(totals.fused_absorbed), static_cast<double>(totals.source_ops)),
       "ratio", n},
      {"sim.bytes_computed_per_job", per_job * totals.bytes_computed, "B", n},
      {"variants.executed_per_job", per_job * static_cast<double>(executed), "count", n},
      {"variants.neglected_ratio",
       ratio(static_cast<double>(totals.variants_standard - totals.variants_required),
             static_cast<double>(totals.variants_standard)),
       "ratio", n},
      {"variants.prefix_groups_per_job", per_job * static_cast<double>(totals.prefix_groups),
       "count", n},
      {"variants.build_ms", per_job * totals.variants_ms, "ms", n},
      {"golden.detect_ms", ratio(totals.detect_ms, static_cast<double>(totals.detections)), "ms",
       totals.detections},
      {"reconstruct.ms_per_job", per_job * totals.reconstruct_ms, "ms", n},
      {"reconstruct.terms_per_job", per_job * static_cast<double>(totals.terms), "count", n},
      {"reconstruct.cpu_wall_ratio", ratio(totals.reconstruct_cpu_s * 1e3, totals.reconstruct_ms),
       "ratio", n},
      {"request.resolve_ms", per_job * totals.resolve_ms, "ms", n},
      {"fragment_graph.build_ms", per_job * totals.graph_ms, "ms", n},
      {"trace.overhead_ratio", ratio(wall_traced, wall_untraced), "ratio", n},
      {"trace.job_p50_ms", p50, "ms", n},
      {"wall.jobs_per_s", ratio(static_cast<double>(counter_jobs), counter_wall), "jobs/s",
       counter_jobs},
      {"wall.job_p50_ms", median(counter_latencies), "ms", counter_latencies.size()},
  };
  failures.print(args.workload, args.seed);
  std::cout << "  worst TVD to exact, as a share of its tolerance: "
            << in.checker->worst_tolerance_share() << "\n";
  return finish(failures.count(), attempted, metrics);
}

}  // namespace
}  // namespace layerbench

int main(int argc, char** argv) {
  try {
    const layerbench::Args args = layerbench::parse_args(argc, argv);
    return args.trace ? layerbench::traced_run(args) : layerbench::timed_run(args);
  } catch (const std::exception& e) {
    std::cerr << "layerbench: " << e.what() << "\n";
    return 2;
  }
}
