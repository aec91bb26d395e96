#include "report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iomanip>
#include <sstream>

namespace layerbench {

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  const std::size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(mid),
                   values.end());
  const double upper = values[mid];
  if (values.size() % 2 == 1) return upper;
  const double lower =
      *std::max_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(mid));
  return 0.5 * (lower + upper);
}

namespace {

/// 1-based nearest rank of the p99: ceil(0.99 n), in integers.
std::uint64_t p99_rank(std::uint64_t n) { return (99 * n + 99) / 100; }

}  // namespace

std::uint64_t samples_beyond_p99(std::uint64_t n) { return n - p99_rank(n); }

std::optional<double> p99(std::vector<double> values) {
  const std::uint64_t n = values.size();
  if (n == 0 || samples_beyond_p99(n) < 10) return std::nullopt;
  const std::size_t index = static_cast<std::size_t>(p99_rank(n) - 1);
  std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(index),
                   values.end());
  return values[index];
}

double drift(std::span<const double> in_order) {
  return pooled_drift(std::vector<std::vector<double>>{{in_order.begin(), in_order.end()}});
}

double pooled_drift(std::span<const std::vector<double>> runs_in_order) {
  std::vector<double> first, last;
  for (const std::vector<double>& run : runs_in_order) {
    const auto tenth = static_cast<std::ptrdiff_t>(run.size() / 10);
    first.insert(first.end(), run.begin(), run.begin() + tenth);
    last.insert(last.end(), run.end() - tenth, run.end());
  }
  if (first.empty()) return 0.0;
  const double base = median(first);
  return base > 0.0 ? median(last) / base : 0.0;
}

double tvd(std::span<const double> p, std::span<const double> q) {
  if (p.size() != q.size()) return 1.0;
  double sum = 0.0;
  for (std::size_t i = 0; i < p.size(); ++i) sum += std::abs(p[i] - q[i]);
  return 0.5 * sum;
}

void print_table(std::ostream& out, std::span<const Metric> metrics) {
  std::size_t width = 0;
  for (const Metric& m : metrics) width = std::max(width, m.name.size());
  for (const Metric& m : metrics) {
    char value[64];
    std::snprintf(value, sizeof value, "%.6g", m.value);
    out << "  " << std::left << std::setw(static_cast<int>(width)) << m.name << "  "
        << std::right << std::setw(14) << value << " " << std::left << std::setw(8) << m.unit
        << " n=" << m.samples << "\n";
  }
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string result_json(bool correct, std::uint64_t attempted, std::uint64_t failed,
                        std::span<const Metric> metrics) {
  std::ostringstream out;
  out << std::setprecision(17);
  out << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << attempted
      << ", \"failed\": " << failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    // JSON has no NaN or infinity. Callers report such a value as a failed
    // run (correct = false); -1 only keeps the line parseable.
    const double value = std::isfinite(m.value) ? m.value : -1.0;
    out << (i == 0 ? "" : ", ") << json_string(m.name) << ": {\"value\": " << value
        << ", \"unit\": " << json_string(m.unit) << "}";
  }
  out << "}}";
  return out.str();
}

}  // namespace layerbench
