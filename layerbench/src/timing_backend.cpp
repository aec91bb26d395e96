#include "timing_backend.hpp"

namespace layerbench {

namespace backend = qcut::backend;

void TimingBackend::record(const char* name, std::uint64_t start, std::uint64_t tag,
                           std::uint64_t circuits) {
  spans_.add(Span{name, start, now_ns(), kNoParent, tag, thread_lane(), circuits});
  std::lock_guard<std::mutex> lock(mutex_);
  circuits_[tag] += circuits;
}

std::uint64_t TimingBackend::take_circuits(std::uint64_t tag) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = circuits_.find(tag);
  if (it == circuits_.end()) return 0;
  const std::uint64_t circuits = it->second;
  circuits_.erase(it);
  return circuits;
}

backend::Counts TimingBackend::run(const qcut::circuit::Circuit& circuit, std::size_t shots,
                                   std::uint64_t seed_stream) {
  const std::uint64_t start = now_ns();
  backend::Counts counts = inner_.run(circuit, shots, seed_stream);
  record("backend.run", start, request_tag(seed_stream), 1);
  return counts;
}

std::vector<double> TimingBackend::exact_probabilities(const qcut::circuit::Circuit& circuit) {
  // No seed stream reaches this call, so its span carries tag 0, which no
  // request uses, and stays unattributed.
  const std::uint64_t start = now_ns();
  std::vector<double> probabilities = inner_.exact_probabilities(circuit);
  record("backend.exact_probabilities", start, 0, 1);
  return probabilities;
}

backend::BatchResult TimingBackend::run_batch(const backend::BatchRequest& request) {
  const std::uint64_t start = now_ns();
  backend::BatchResult result = inner_.run_batch(request);
  // The service batches per job, so a batch carries one request tag; a
  // mixed batch is recorded once per tag, each with its own circuit count.
  std::map<std::uint64_t, std::uint64_t> circuits_per_tag;
  for (const backend::BatchJob& job : request.jobs) {
    ++circuits_per_tag[request_tag(job.seed_stream)];
  }
  for (const auto& [tag, circuits] : circuits_per_tag) {
    record("backend.run_batch", start, tag, circuits);
  }
  return result;
}

}  // namespace layerbench
