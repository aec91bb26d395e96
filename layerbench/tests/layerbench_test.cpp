// Unit tests of the benchmark's own machinery: span self time, request
// attribution from seed streams, the timing decorator, the p99 sample rule
// and result printing. Exits nonzero on the first failed check.
//
//   python3 layerbench/run.py --selftest

#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "backend/statevector_backend.hpp"
#include "cutting/fragment_executor.hpp"
#include "report.hpp"
#include "spans.hpp"
#include "timing_backend.hpp"
#include "workloads.hpp"

namespace {

int failures = 0;

void check(bool ok, const std::string& what) {
  if (!ok) {
    std::cerr << "FAIL: " << what << "\n";
    ++failures;
  }
}

using layerbench::kNoParent;
using layerbench::Span;

void self_time_on_a_synthetic_tree() {
  // root [0,100] with children [10,30] and [20,50] (overlapping) and
  // [90,120] (running past the root); [20,50] has a child [25,35].
  std::vector<Span> spans = {
      {"root", 0, 100, kNoParent, 1, 0, 0},
      {"a", 10, 30, 0, 1, 0, 0},
      {"b", 20, 50, 0, 1, 0, 0},
      {"c", 90, 120, 0, 1, 0, 0},
      {"b.child", 25, 35, 2, 1, 0, 0},
  };
  const std::vector<std::uint64_t> self = layerbench::self_times(spans);
  check(self[0] == 50, "root self time = 100 - |[10,50] u [90,100]| = 50");
  check(self[1] == 20, "leaf self time is its duration");
  check(self[2] == 20, "b self time = 30 - 10 covered by its child");
  check(self[3] == 30, "c self time is its duration");
  check(self[4] == 10, "grandchild self time is its duration");
  check(layerbench::covered_ns({}, 0, 10) == 0, "nothing covered without children");
  check(layerbench::covered_ns({{0, 5}, {5, 10}}, 0, 10) == 10, "adjacent intervals cover all");
}

void request_attribution_from_seed_streams() {
  // Seed streams as the service builds them: base + fragment offset +
  // variant index, all far below bit 32.
  const std::uint64_t base = layerbench::seed_base_for(41);
  for (int fragment = 0; fragment < 3; ++fragment) {
    const std::uint64_t stream = base + qcut::cutting::fragment_seed_offset(fragment) + 17;
    check(layerbench::request_tag(stream) == 41, "tag survives fragment and variant offsets");
  }

  // Two jobs share tag 5 at different times (a revisited grid point); one
  // job has tag 9; one backend span has no job.
  std::vector<Span> spans = {
      {"job", 0, 100, kNoParent, 5, 0, 0},
      {"job", 200, 300, kNoParent, 5, 0, 0},
      {"job", 50, 150, kNoParent, 9, 0, 0},
      {"backend.run_batch", 210, 220, kNoParent, 5, 0, 3},
      {"backend.run_batch", 60, 70, kNoParent, 9, 0, 2},
      {"backend.run_batch", 10, 20, kNoParent, 5, 0, 1},
      {"backend.run_batch", 400, 410, kNoParent, 7, 0, 1},
  };
  const std::size_t orphans = layerbench::attribute_to_requests(spans, "job");
  check(spans[3].parent == 1, "span goes to the same-tag job whose interval holds it");
  check(spans[4].parent == 2, "span goes to the job of its own tag");
  check(spans[5].parent == 0, "earlier visit of a tag gets its own span");
  check(spans[6].parent == kNoParent && orphans == 1, "a span without a job stays unattributed");
}

void timing_decorator_forwards_bit_for_bit() {
  qcut::backend::StatevectorBackend inner(3);
  layerbench::SpanRecorder recorder;
  layerbench::TimingBackend timed(inner, recorder);
  check(timed.identity() == inner.identity(), "identity() is forwarded");

  qcut::circuit::Circuit c(3);
  c.h(0).cx(0, 1).ry(0.3, 2);
  qcut::backend::BatchRequest batch;
  batch.jobs.push_back({c, 100, layerbench::seed_base_for(5) + 1});
  batch.jobs.push_back({c, 100, layerbench::seed_base_for(5) + 2});
  batch.jobs.push_back({c, 100, layerbench::seed_base_for(7)});
  const qcut::backend::BatchResult direct = inner.run_batch(batch);
  const qcut::backend::BatchResult decorated = timed.run_batch(batch);
  bool same = direct.counts.size() == decorated.counts.size();
  for (std::size_t j = 0; same && j < direct.counts.size(); ++j) {
    same = direct.counts[j].to_probabilities() == decorated.counts[j].to_probabilities();
  }
  check(same, "decorated batch results equal undecorated ones");
  check(timed.exact_probabilities(c) == inner.exact_probabilities(c),
        "exact_probabilities is forwarded");

  const std::vector<Span> spans = recorder.take();
  std::uint64_t items5 = 0, items7 = 0;
  for (const Span& s : spans) {
    if (s.name != "backend.run_batch") continue;
    if (s.request == 5) items5 += s.items;
    if (s.request == 7) items7 += s.items;
  }
  check(items5 == 2 && items7 == 1, "one span per request tag with its circuit count");
  check(timed.take_circuits(5) == 2 && timed.take_circuits(5) == 0,
        "take_circuits returns and resets the per-tag count");
}

void p99_needs_ten_samples_beyond_it() {
  std::vector<double> values;
  for (int i = 1; i <= 999; ++i) values.push_back(i);
  check(layerbench::samples_beyond_p99(999) == 9, "999 samples leave 9 beyond the p99");
  check(!layerbench::p99(values).has_value(), "no p99 from 999 samples");
  values.push_back(1000);
  check(layerbench::samples_beyond_p99(1000) == 10, "1000 samples leave 10 beyond the p99");
  check(layerbench::p99(values) == 990.0, "p99 of 1..1000 is the 990th value");
}

void statistics() {
  check(layerbench::median({3, 1, 2}) == 2.0, "median of odd count");
  check(layerbench::median({4, 1, 2, 3}) == 2.5, "median of even count");
  std::vector<double> ramp;
  for (int i = 0; i < 100; ++i) ramp.push_back(i < 10 ? 1.0 : (i >= 90 ? 3.0 : 2.0));
  check(layerbench::drift(ramp) == 3.0, "drift is last-tenth median over first-tenth median");
  const std::vector<double> flat_short = {4, 0, 0, 0, 0, 0, 0, 0, 0, 4};
  check(layerbench::pooled_drift(std::vector<std::vector<double>>{ramp, flat_short}) == 3.0,
        "pooled drift pools the runs' tenths (11 samples each), not their ratios (3 and 1)");
  check(layerbench::tvd(std::vector<double>{1, 0}, std::vector<double>{0.5, 0.5}) == 0.5, "tvd");
  check(layerbench::mode_of(0) == layerbench::Mode::Standard &&
            layerbench::mode_of(1) == layerbench::Mode::Golden &&
            layerbench::mode_of(2) == layerbench::Mode::Golden &&
            layerbench::mode_of(3) == layerbench::Mode::Standard,
        "pairs alternate which mode goes first");
}

void every_metric_printed_with_its_unit() {
  const std::vector<layerbench::Metric> metrics = {
      {"job_p50_ms", 1.25, "ms", 1000}, {"jobs_per_s", 800.0, "jobs/s", 1000}};
  const std::string line = layerbench::result_json(true, 1000, 0, metrics);
  check(line.starts_with("{\"correct\": true, \"attempted\": 1000, \"failed\": 0, \"metrics\": {"),
        "result line has the contract's keys in order");
  check(line.find("\"job_p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}") != std::string::npos,
        "metric printed with value and unit");
  check(line.find("\"jobs_per_s\": {\"value\": 800, \"unit\": \"jobs/s\"}") != std::string::npos,
        "second metric printed with value and unit");
  check(line.find('\n') == std::string::npos, "result is one line");
}

}  // namespace

int main() {
  self_time_on_a_synthetic_tree();
  request_attribution_from_seed_streams();
  timing_decorator_forwards_bit_for_bit();
  p99_needs_ten_samples_beyond_it();
  statistics();
  every_metric_printed_with_its_unit();
  if (failures > 0) {
    std::cerr << failures << " check(s) failed\n";
    return EXIT_FAILURE;
  }
  std::cout << "layerbench_test: all checks passed\n";
  return EXIT_SUCCESS;
}
