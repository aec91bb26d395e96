#pragma once
// Sample statistics and result printing for the layer benchmark.
//
// Every timing is reported as a median plus the highest percentile with at
// least ten samples beyond it, always next to its sample count; the final
// stdout line is one JSON object with the keys the benchmark contract
// fixes: correct, attempted, failed, metrics.

#include <cstdint>
#include <optional>
#include <ostream>
#include <span>
#include <string>
#include <vector>

namespace layerbench {

/// Median of `values` (mean of the two middle elements for even counts).
/// Zero for an empty input.
[[nodiscard]] double median(std::vector<double> values);

/// Nearest-rank p99 of `values`, engaged only when at least ten samples lie
/// strictly beyond the reported rank (so n >= 1000). With fewer samples a
/// p99 is an extrapolation and is not reported.
[[nodiscard]] std::optional<double> p99(std::vector<double> values);

/// Samples that lie beyond the nearest-rank p99 of `n` samples.
[[nodiscard]] std::uint64_t samples_beyond_p99(std::uint64_t n);

/// Median of the last tenth of `in_order` over the median of its first
/// tenth (1.0 = flat). Zero when fewer than ten samples exist.
[[nodiscard]] double drift(std::span<const double> in_order);

/// drift() over several runs: the first tenths of all runs are pooled, and
/// so are their last tenths, before the two medians are taken.
[[nodiscard]] double pooled_drift(std::span<const std::vector<double>> runs_in_order);

/// Total variation distance between two distributions of equal length.
[[nodiscard]] double tvd(std::span<const double> p, std::span<const double> q);

/// One reported number.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::uint64_t samples = 0;  // how many observations the value summarizes
};

/// Human-readable table: one line per metric with its unit and samples.
void print_table(std::ostream& out, std::span<const Metric> metrics);

/// The contract's final line:
///   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name:
///   {"value": v, "unit": u}, ...}}
/// Values print with all 17 significant digits.
[[nodiscard]] std::string result_json(bool correct, std::uint64_t attempted,
                                      std::uint64_t failed, std::span<const Metric> metrics);

/// JSON string literal with the characters JSON requires escaped.
[[nodiscard]] std::string json_string(const std::string& text);

}  // namespace layerbench
