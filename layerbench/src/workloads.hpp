#pragma once
// The benchmark's three workloads, generated from the workload seed.
//
// Only generated inputs reach the library: each workload is a pure function
// (seed, job index) -> CutRequest, plus the exact uncut distribution every
// response is checked against.
//
//   paper_fig4    The paper's Fig. 4: a 5-qubit golden ansatz (golden Y),
//                 one cut, 1000 shots per variant, one client calling
//                 qcut::run. Fixed per-job cost dominates here.
//   chain12_cold  12-qubit 3-fragment ry+cx brickwork chains, one cut wire
//                 per boundary, fresh angles per job (never cached), exact
//                 fragment distributions, one long-lived CutService with 4
//                 requests in flight. Backend, sim and reconstruction work
//                 dominate.
//   qaoa_repeat   12-qubit depth-3 QAOA MaxCut on a path, middle cut, a
//                 small parameter grid revisited with a fixed seed per
//                 point, 4 in flight. Every timed job is a cache read.
//
// Golden and standard jobs interleave in order-alternating pairs on every
// workload, so per-call cost growth is charged to both sides equally.

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "cutting/request.hpp"

namespace layerbench {

enum class Mode { Standard, Golden };

/// Job i belongs to pair i / 2. Even pairs run standard then golden, odd
/// pairs golden then standard.
[[nodiscard]] Mode mode_of(std::uint64_t job_index) noexcept;

struct Job {
  qcut::CutRequest request{qcut::circuit::Circuit(1)};
  Mode mode = Mode::Standard;
  /// Seed tag in the high bits of seed_stream_base (request or grid point).
  std::uint64_t tag = 0;
  /// Which reference result this job must reproduce: equal references
  /// with equal modes must give bit-identical responses (qaoa_repeat).
  std::uint64_t reference = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Closed-loop client threads (requests in flight).
  [[nodiscard]] virtual int clients() const = 0;

  /// True: jobs go through one long-lived CutService. False: each job is
  /// one qcut::run call, which builds and tears down its own service.
  [[nodiscard]] virtual bool long_lived_service() const = 0;

  /// Job `i` of the timed stream.
  [[nodiscard]] virtual Job job(std::uint64_t i) const = 0;

  /// Jobs run during set-up, before timing: one off-stream job, or the
  /// whole grid where repeats should be cache reads.
  [[nodiscard]] virtual std::vector<Job> warmup() const = 0;

  /// Exact distribution of the uncut circuit of `job`.
  [[nodiscard]] virtual std::vector<double> exact(const Job& job) const = 0;

  /// Whether a repeat of a reference must be bit-identical to its first
  /// visit (cache reads).
  [[nodiscard]] virtual bool repeats() const { return false; }

  /// One line: what the workload runs, for the printed context.
  [[nodiscard]] virtual std::string describe() const = 0;
};

/// Largest total variation distance from the exact distribution a correct
/// response may show. Sampled reconstructions: kTvdShotFactor times the sum
/// over fragments of sqrt(2^width / shots), the scale of one fragment's
/// multinomial sampling error. Exact-mode runs (shots = 0) get
/// kExactTvdTolerance, the floating-point reconstruction error.
inline constexpr double kTvdShotFactor = 1.0;
inline constexpr double kExactTvdTolerance = 1e-9;
[[nodiscard]] double tvd_tolerance(const qcut::CutResponse& response);

[[nodiscard]] std::unique_ptr<Workload> make_workload(std::string_view name, std::uint64_t seed);

/// Exact probabilities of `circuit` on the generic statevector path (the
/// repository's reference oracle).
[[nodiscard]] std::vector<double> exact_uncut(const qcut::circuit::Circuit& circuit);

}  // namespace layerbench
