#include "machine.hpp"

#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <sstream>
#include <thread>

#include "report.hpp"

#ifndef LAYERBENCH_BUILD_TYPE
#define LAYERBENCH_BUILD_TYPE "unknown"
#endif

namespace layerbench {

namespace {

std::int64_t sysconf_or_zero(int name) {
  const long value = ::sysconf(name);
  return value > 0 ? value : 0;
}

/// The backend folds "+simd(<isa>)" into its identity when the SIMD path
/// is dispatched.
std::string isa_from_identity(const std::string& identity) {
  const std::string marker = "simd(";
  const std::size_t at = identity.find(marker);
  if (at == std::string::npos) return "scalar";
  const std::size_t begin = at + marker.size();
  const std::size_t end = identity.find(')', begin);
  return identity.substr(begin, end == std::string::npos ? std::string::npos : end - begin);
}

}  // namespace

MachineContext read_machine_context(const std::string& backend_identity) {
  MachineContext context;
  context.nproc = std::thread::hardware_concurrency();
#ifdef _SC_LEVEL2_CACHE_SIZE
  context.l2_bytes = sysconf_or_zero(_SC_LEVEL2_CACHE_SIZE);
#endif
#ifdef _SC_LEVEL3_CACHE_SIZE
  context.l3_bytes = sysconf_or_zero(_SC_LEVEL3_CACHE_SIZE);
#endif
  context.backend_identity = backend_identity;
  context.simd_isa = isa_from_identity(backend_identity);
  context.build_type = LAYERBENCH_BUILD_TYPE;
#if defined(__clang__)
  context.compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
  context.compiler = "gcc " __VERSION__;
#else
  context.compiler = "unknown";
#endif
  return context;
}

std::string MachineContext::to_json() const {
  std::ostringstream out;
  out << "{\"nproc\": " << nproc << ", \"l2_bytes\": " << l2_bytes
      << ", \"l3_bytes\": " << l3_bytes
      << ", \"backend_identity\": " << json_string(backend_identity)
      << ", \"simd_isa\": " << json_string(simd_isa)
      << ", \"build_type\": " << json_string(build_type)
      << ", \"compiler\": " << json_string(compiler) << "}";
  return out.str();
}

double process_cpu_seconds() noexcept {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double thread_cpu_seconds() noexcept {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mib() noexcept {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

}  // namespace layerbench
