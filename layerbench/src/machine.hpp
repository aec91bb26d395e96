#pragma once
// Machine context printed with every result and stored next to the traces:
// the figures a reader needs before comparing two runs.

#include <cstdint>
#include <string>

namespace layerbench {

struct MachineContext {
  unsigned nproc = 0;
  std::int64_t l2_bytes = 0;  // 0 when the OS does not report it
  std::int64_t l3_bytes = 0;
  std::string backend_identity;
  std::string simd_isa;       // parsed from the backend identity ("scalar" when absent)
  std::string build_type;
  std::string compiler;

  [[nodiscard]] std::string to_json() const;
};

/// Reads the context; `backend_identity` comes from Backend::identity().
[[nodiscard]] MachineContext read_machine_context(const std::string& backend_identity);

/// Process user + system CPU seconds (getrusage).
[[nodiscard]] double process_cpu_seconds() noexcept;

/// Calling thread's CPU seconds.
[[nodiscard]] double thread_cpu_seconds() noexcept;

/// Peak resident set size of the process in MiB (ru_maxrss).
[[nodiscard]] double peak_rss_mib() noexcept;

}  // namespace layerbench
