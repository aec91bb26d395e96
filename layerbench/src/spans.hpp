#pragma once
// In-memory span recording for the traced run.
//
// Spans are recorded by the benchmark around its calls into each layer
// (the library itself is not instrumented for this): the job span from
// submit to CutResponse, backend spans from the timing decorator, and the
// replay spans of the cutting and sim layers. A span names its parent by
// index; a layer's self time is its duration minus the part of that
// interval its children cover. Spans are written out once, at the end, as
// Chrome-trace JSON.

#include <cstdint>
#include <mutex>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace layerbench {

inline constexpr std::int64_t kNoParent = -1;

struct Span {
  std::string name;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::int64_t parent = kNoParent;  // index into the span list
  std::uint64_t request = 0;        // request tag (see request_tag)
  std::uint32_t thread = 0;
  std::uint64_t items = 0;          // e.g. circuits in a backend batch

  [[nodiscard]] std::uint64_t duration_ns() const noexcept {
    return end_ns > start_ns ? end_ns - start_ns : 0;
  }
};

/// Monotonic nanoseconds (steady_clock).
[[nodiscard]] std::uint64_t now_ns() noexcept;

/// Small dense id of the calling thread, for Chrome-trace lanes.
[[nodiscard]] std::uint32_t thread_lane() noexcept;

// ---- Request attribution ----------------------------------------------------
//
// The benchmark puts each request's tag (request or grid-point index + 1)
// in the high 32 bits of CutRunOptions::seed_stream_base. The service adds
// per-fragment and per-variant offsets far below bit 32, so every
// BatchJob::seed_stream still carries its request's tag.

[[nodiscard]] constexpr std::uint64_t seed_base_for(std::uint64_t tag) noexcept {
  return tag << 32;
}
[[nodiscard]] constexpr std::uint64_t request_tag(std::uint64_t seed_stream) noexcept {
  return seed_stream >> 32;
}

/// Thread-safe append-only span store.
class SpanRecorder {
 public:
  /// Appends `span` and returns its index.
  std::int64_t add(Span span);

  /// Moves every recorded span out, leaving the recorder empty.
  [[nodiscard]] std::vector<Span> take();

 private:
  std::mutex mutex_;
  std::vector<Span> spans_;
};

/// Length of the union of `intervals` clipped to [lo, hi].
[[nodiscard]] std::uint64_t covered_ns(
    std::vector<std::pair<std::uint64_t, std::uint64_t>> intervals, std::uint64_t lo,
    std::uint64_t hi);

/// Self time of every span: its duration minus the union of its children's
/// intervals clipped to it.
[[nodiscard]] std::vector<std::uint64_t> self_times(std::span<const Span> spans);

/// Parents every unparented span whose name is not `root_name` under the
/// `root_name` span of the same request tag whose interval contains the
/// span's start. Returns how many spans found no such root.
std::size_t attribute_to_requests(std::vector<Span>& spans, const std::string& root_name);

/// Writes `spans` as Chrome-trace JSON (complete "X" events, microseconds
/// relative to the earliest span). Returns false when the file cannot be
/// written.
bool write_chrome_trace(const std::string& path, std::span<const Span> spans);

}  // namespace layerbench
