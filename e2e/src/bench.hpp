#pragma once
// Shared types of the end-to-end benchmark: command-line options, the
// metrics a workload reports, and the pass loop every workload runs.

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "checks.hpp"
#include "spans.hpp"

namespace e2e {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 2005;
  double seconds = 10.0;
  bool trace = false;
  /// Directory for run artifacts (exporter files, traces, span dumps).
  std::string out_dir = ".";
};

/// Everything one run of a workload hands back to main().
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  CheckLog checks;
  /// Metric values by name: the end-to-end metrics of an untraced run, the
  /// per-layer metrics of a traced one (main() adds the units).
  std::map<std::string, double> values;
  std::vector<std::string> notes;  ///< human-readable lines printed before the result
};

/// Seconds since this process started running its own code (the cold
/// set-up clock): the earliest constructor, before any static initializer
/// of the program, takes the start time.
[[nodiscard]] double since_process_start_s();

/// Run as many passes as fit in `options.seconds`, at least `min_passes`
/// (>= 1) of them. `pass(p)` runs one whole workload and returns the seconds it
/// timed (the workload itself, without per-pass preparation or checks);
/// the timed seconds of every pass are returned in order.
[[nodiscard]] std::vector<double> run_passes(const Options& options, std::size_t min_passes,
                                             const std::function<double(std::size_t)>& pass);

[[nodiscard]] double median(std::vector<double> values);
/// The wall-time statistic of a run: its fastest pass. Passes repeat the
/// same deterministic work, and the host's noise only ever slows a pass
/// (slow spells last seconds), so the fastest pass is the one a spell
/// moves least.
[[nodiscard]] double fastest_pass(const std::vector<double>& pass_seconds);
/// "a b c" with every digit, for notes.
[[nodiscard]] std::string join(const std::vector<double>& values);

/// Peak resident set (VmHWM) of this process, MiB.
[[nodiscard]] double peak_rss_mib();

/// nproc, compiler, build type and the resolved SIMD level.
[[nodiscard]] std::vector<std::string> host_facts();

// Workloads (one translation unit each).
Outcome run_fig4_sweep(const Options& options, SpanLog* spans);
Outcome run_grid_campaign(const Options& options, SpanLog* spans);
Outcome run_federated_pipeline(const Options& options, SpanLog* spans);

}  // namespace e2e
