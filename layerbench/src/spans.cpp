#include "spans.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <map>

#include "report.hpp"

namespace layerbench {

std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

std::uint32_t thread_lane() noexcept {
  static std::atomic<std::uint32_t> next{1};
  thread_local const std::uint32_t lane = next.fetch_add(1);
  return lane;
}

std::int64_t SpanRecorder::add(Span span) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(span));
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

std::vector<Span> SpanRecorder::take() {
  std::lock_guard<std::mutex> lock(mutex_);
  return std::exchange(spans_, {});
}

std::uint64_t covered_ns(std::vector<std::pair<std::uint64_t, std::uint64_t>> intervals,
                         std::uint64_t lo, std::uint64_t hi) {
  std::sort(intervals.begin(), intervals.end());
  std::uint64_t covered = 0;
  std::uint64_t reach = lo;  // everything before `reach` is already counted
  for (auto [start, end] : intervals) {
    start = std::max(start, reach);
    end = std::min(end, hi);
    if (end <= start) continue;
    covered += end - start;
    reach = end;
  }
  return covered;
}

std::vector<std::uint64_t> self_times(std::span<const Span> spans) {
  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0 && static_cast<std::size_t>(s.parent) < spans.size()) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns, s.end_ns);
    }
  }
  std::vector<std::uint64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    self[i] = spans[i].duration_ns() -
              covered_ns(std::move(children[i]), spans[i].start_ns, spans[i].end_ns);
  }
  return self;
}

std::size_t attribute_to_requests(std::vector<Span>& spans, const std::string& root_name) {
  std::multimap<std::uint64_t, std::size_t> roots;  // tag -> root span index
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].name == root_name) roots.emplace(spans[i].request, i);
  }
  std::size_t orphans = 0;
  for (Span& s : spans) {
    if (s.parent != kNoParent || s.name == root_name) continue;
    const auto [first, last] = roots.equal_range(s.request);
    bool found = false;
    for (auto it = first; it != last && !found; ++it) {
      const Span& root = spans[it->second];
      if (root.start_ns <= s.start_ns && s.start_ns <= root.end_ns) {
        s.parent = static_cast<std::int64_t>(it->second);
        found = true;
      }
    }
    if (!found) ++orphans;
  }
  return orphans;
}

bool write_chrome_trace(const std::string& path, std::span<const Span> spans) {
  std::ofstream out(path);
  if (!out) return false;
  std::uint64_t origin = UINT64_MAX;
  for (const Span& s : spans) origin = std::min(origin, s.start_ns);
  out << "{\"traceEvents\": [\n";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << (i == 0 ? "" : ",\n") << "{\"name\": " << json_string(s.name)
        << ", \"ph\": \"X\", \"pid\": 1, \"tid\": " << s.thread
        << ", \"ts\": " << static_cast<double>(s.start_ns - origin) * 1e-3
        << ", \"dur\": " << static_cast<double>(s.duration_ns()) * 1e-3
        << ", \"args\": {\"id\": " << i << ", \"parent\": " << s.parent
        << ", \"request\": " << s.request << ", \"items\": " << s.items << "}}";
  }
  out << "\n], \"displayTimeUnit\": \"ms\"}\n";
  return static_cast<bool>(out);
}

}  // namespace layerbench
