#pragma once
// Set-up, execution and correctness checking shared by the timed and the
// traced run.

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "backend/statevector_backend.hpp"
#include "service/cut_service.hpp"
#include "spans.hpp"
#include "timing_backend.hpp"
#include "workloads.hpp"

namespace layerbench {

/// Runs jobs on one backend through the library's public entry points: a
/// long-lived CutService, or one qcut::run per job (which builds and tears
/// down its own service).
class Executor {
 public:
  Executor(bool long_lived_service, qcut::backend::Backend& backend);

  [[nodiscard]] qcut::CutResponse run(qcut::CutRequest request);

 private:
  qcut::backend::Backend& backend_;
  std::unique_ptr<qcut::service::CutService> service_;
};

/// Bit-for-bit equality of two distributions.
[[nodiscard]] bool bit_identical(const std::vector<double>& a, const std::vector<double>& b);

/// Thread-safe failure count with the first few reasons kept for stderr.
class FailureLog {
 public:
  void record(const std::string& what);
  [[nodiscard]] std::uint64_t count() const;
  void print(const std::string& workload, std::uint64_t seed) const;

 private:
  mutable std::mutex mutex_;
  std::uint64_t count_ = 0;
  std::vector<std::string> first_;
};

/// Correctness oracle: every response within the shot-derived TVD tolerance
/// of the exact uncut distribution; on repeat workloads, every response
/// bit-identical to the first visit of its (reference, mode).
class Checker {
 public:
  explicit Checker(const Workload& workload) : workload_(workload) {}

  /// Records `response` as the first visit of its reference. Called during
  /// set-up only, before any concurrent check().
  void remember(const Job& job, const qcut::CutResponse& response);

  /// Empty when the response is correct, otherwise why it is not.
  [[nodiscard]] std::string check(const Job& job, const qcut::CutResponse& response);

  /// Largest TVD / tolerance seen so far: how close the run came to failing.
  [[nodiscard]] double worst_tolerance_share() const;

 private:
  using Key = std::pair<std::uint64_t, Mode>;
  const Workload& workload_;
  std::map<Key, std::vector<double>> first_visit_;
  mutable std::mutex mutex_;
  double worst_share_ = 0.0;  // guarded by mutex_
};

/// One set-up: inputs, backend, service(s), warm-up.
struct Instance {
  std::unique_ptr<Workload> workload;
  std::unique_ptr<qcut::backend::StatevectorBackend> backend;
  std::unique_ptr<Executor> executor;
  std::unique_ptr<Checker> checker;
  std::uint64_t warmup_jobs = 0;

  // Traced runs only: the timing decorator over the same backend and a
  // second executor (own service and cache) that runs through it.
  std::unique_ptr<SpanRecorder> spans;
  std::unique_ptr<TimingBackend> timed_backend;
  std::unique_ptr<Executor> traced;
};

/// Builds everything and runs the workload's warm-up jobs through every
/// executor, checking each response into `failures`. Throws on set-up
/// errors.
[[nodiscard]] std::unique_ptr<Instance> set_up(const std::string& workload, std::uint64_t seed,
                                               bool traced, FailureLog& failures);

/// When a closed loop stops claiming jobs: after `seconds`, or when the next
/// index reaches `end_index`.
struct LoopRule {
  double seconds = 1e9;
  std::uint64_t end_index = UINT64_MAX;
};

/// Closed loop: `clients` threads each claim the next job index from
/// `next_index` and run `body(client, index)`, until `rule` stops them.
/// Returns the wall seconds until the last client finished.
double run_closed_loop(int clients, std::atomic<std::uint64_t>& next_index, const LoopRule& rule,
                       const std::function<void(int, std::uint64_t)>& body);

}  // namespace layerbench
