#include "harness.hpp"

#include <algorithm>
#include <cstring>
#include <iostream>
#include <thread>

#include "cutting/pipeline.hpp"
#include "report.hpp"

namespace layerbench {

Executor::Executor(bool long_lived_service, qcut::backend::Backend& backend)
    : backend_(backend) {
  if (long_lived_service) service_ = std::make_unique<qcut::service::CutService>(backend);
}

qcut::CutResponse Executor::run(qcut::CutRequest request) {
  if (service_ != nullptr) return service_->submit(std::move(request)).get();
  return qcut::run(request, backend_);
}

bool bit_identical(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

void FailureLog::record(const std::string& what) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++count_;
  if (first_.size() < 5) first_.push_back(what);
}

std::uint64_t FailureLog::count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return count_;
}

void FailureLog::print(const std::string& workload, std::uint64_t seed) const {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const std::string& what : first_) {
    std::cerr << "FAIL [" << workload << " --seed " << seed << "] " << what << "\n";
  }
  if (count_ > first_.size()) {
    std::cerr << "FAIL ... " << (count_ - first_.size()) << " more\n";
  }
}

void Checker::remember(const Job& job, const qcut::CutResponse& response) {
  if (!workload_.repeats()) return;
  first_visit_.emplace(Key{job.reference, job.mode}, response.reconstruction.raw_probabilities);
}

std::string Checker::check(const Job& job, const qcut::CutResponse& response) {
  const std::vector<double> exact = workload_.exact(job);
  const double distance = tvd(response.probabilities(), exact);
  const double tolerance = tvd_tolerance(response);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    worst_share_ = std::max(worst_share_, distance / tolerance);
  }
  if (!(distance <= tolerance)) {
    return "TVD " + std::to_string(distance) + " to the exact distribution exceeds " +
           std::to_string(tolerance);
  }
  if (workload_.repeats()) {
    const auto it = first_visit_.find(Key{job.reference, job.mode});
    if (it == first_visit_.end()) return "no first visit recorded for this grid point";
    if (!bit_identical(it->second, response.reconstruction.raw_probabilities)) {
      return "repeat differs from the first visit of its grid point";
    }
  }
  return {};
}

double Checker::worst_tolerance_share() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return worst_share_;
}

std::unique_ptr<Instance> set_up(const std::string& workload, std::uint64_t seed, bool traced,
                                 FailureLog& failures) {
  auto instance = std::make_unique<Instance>();
  Instance& in = *instance;
  in.workload = make_workload(workload, seed);
  in.backend = std::make_unique<qcut::backend::StatevectorBackend>(seed);
  const bool long_lived = in.workload->long_lived_service();
  in.executor = std::make_unique<Executor>(long_lived, *in.backend);
  in.checker = std::make_unique<Checker>(*in.workload);
  if (traced) {
    in.spans = std::make_unique<SpanRecorder>();
    in.timed_backend = std::make_unique<TimingBackend>(*in.backend, *in.spans);
    in.traced = std::make_unique<Executor>(long_lived, *in.timed_backend);
  }

  for (const Job& job : in.workload->warmup()) {
    ++in.warmup_jobs;
    const qcut::CutResponse response = in.executor->run(job.request);
    in.checker->remember(job, response);
    const std::string why = in.checker->check(job, response);
    if (!why.empty()) failures.record("warm-up job: " + why);
    if (in.traced != nullptr) {
      const qcut::CutResponse through_decorator = in.traced->run(job.request);
      (void)in.timed_backend->take_circuits(job.tag);
      if (!bit_identical(through_decorator.reconstruction.raw_probabilities,
                         response.reconstruction.raw_probabilities)) {
        failures.record("warm-up job differs through the timing decorator");
      }
    }
  }
  if (in.spans != nullptr) (void)in.spans->take();  // set-up spans are not measured
  return instance;
}

double run_closed_loop(int clients, std::atomic<std::uint64_t>& next_index, const LoopRule& rule,
                       const std::function<void(int, std::uint64_t)>& body) {
  const std::uint64_t start = now_ns();
  const auto elapsed = [start] { return static_cast<double>(now_ns() - start) * 1e-9; };
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      for (;;) {
        if (elapsed() >= rule.seconds) return;
        const std::uint64_t index = next_index.fetch_add(1);
        if (index >= rule.end_index) return;
        body(c, index);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  return elapsed();
}

}  // namespace layerbench
