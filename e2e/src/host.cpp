// Run-loop helpers and host facts shared by the workloads.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include <sys/resource.h>
#include <unistd.h>

#include "bench.hpp"
#include "md/simd.hpp"

#ifndef E2E_BUILD_TYPE
#define E2E_BUILD_TYPE "unknown"
#endif

namespace e2e {

namespace {
/// The earliest clock read of the binary: before any C++ static
/// initializer (priority 101 runs first), after the dynamic loader.
Clock::time_point g_process_start;
__attribute__((constructor(101))) void mark_process_start() { g_process_start = Clock::now(); }
}  // namespace

double since_process_start_s() { return seconds_since(g_process_start); }

std::vector<double> run_passes(const Options& options, std::size_t min_passes,
                               const std::function<double(std::size_t)>& pass) {
  std::vector<double> seconds;
  const Clock::time_point start = Clock::now();
  // Start another pass only while one more, as long as the average so
  // far (preparation and checks included), still ends inside the budget.
  while (seconds.size() < min_passes ||
         seconds_since(start) * static_cast<double>(seconds.size() + 1) /
                 static_cast<double>(seconds.size()) <= options.seconds) {
    seconds.push_back(pass(seconds.size()));
  }
  return seconds;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double fastest_pass(const std::vector<double>& pass_seconds) {
  return pass_seconds.empty() ? 0.0 : *std::min_element(pass_seconds.begin(), pass_seconds.end());
}

std::string join(const std::vector<double>& values) {
  std::string out;
  char buffer[32];
  for (const double v : values) {
    std::snprintf(buffer, sizeof(buffer), "%s%.6f", out.empty() ? "" : " ", v);
    out += buffer;
  }
  return out;
}

double peak_rss_mib() {
  if (std::ifstream status("/proc/self/status"); status) {
    std::string line;
    while (std::getline(status, line)) {
      if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

std::vector<std::string> host_facts() {
#if defined(__clang__)
  const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = std::string("gcc ") + __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
  const char* simd_env = std::getenv("SPICE_SIMD");
  return {
      "nproc: " + std::to_string(sysconf(_SC_NPROCESSORS_ONLN)),
      "compiler: " + compiler,
      std::string("build_type: ") + E2E_BUILD_TYPE,
      "simd: " + std::string(spice::md::simd::name(spice::md::simd::active())) +
          (simd_env != nullptr ? std::string(" (SPICE_SIMD=") + simd_env + ")"
                               : std::string(" (SPICE_SIMD unset)")),
  };
}

}  // namespace e2e
