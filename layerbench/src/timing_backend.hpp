#pragma once
// Forwarding timing decorator over a backend::Backend.
//
// Every call is forwarded unchanged to the wrapped backend - identity()
// included, so cache keys and results are those of the wrapped backend -
// and each execution call is recorded as one span per request tag found in
// its seed streams. The benchmark checks that results through the
// decorator are bit-identical to results without it; otherwise the trace
// would measure a different program.

#include <map>
#include <mutex>

#include "backend/backend.hpp"
#include "spans.hpp"

namespace layerbench {

class TimingBackend final : public qcut::backend::Backend {
 public:
  TimingBackend(qcut::backend::Backend& inner, SpanRecorder& spans)
      : inner_(inner), spans_(spans) {}

  [[nodiscard]] std::string name() const override { return inner_.name(); }
  [[nodiscard]] std::string identity() const override { return inner_.identity(); }

  using Backend::run;
  [[nodiscard]] qcut::backend::Counts run(const qcut::circuit::Circuit& circuit,
                                          std::size_t shots,
                                          std::uint64_t seed_stream) override;

  [[nodiscard]] std::vector<double> exact_probabilities(
      const qcut::circuit::Circuit& circuit) override;

  [[nodiscard]] qcut::backend::BatchResult run_batch(
      const qcut::backend::BatchRequest& request) override;

  [[nodiscard]] qcut::backend::BackendStats stats() const override { return inner_.stats(); }
  void reset_stats() override { inner_.reset_stats(); }

  /// Circuits executed for request `tag` since the last call, which resets
  /// the count (the sim replay re-runs exactly that many).
  [[nodiscard]] std::uint64_t take_circuits(std::uint64_t tag);

 private:
  void record(const char* name, std::uint64_t start, std::uint64_t tag, std::uint64_t circuits);

  qcut::backend::Backend& inner_;
  SpanRecorder& spans_;
  std::mutex mutex_;
  std::map<std::uint64_t, std::uint64_t> circuits_;  // tag -> executed, guarded by mutex_
};

}  // namespace layerbench
