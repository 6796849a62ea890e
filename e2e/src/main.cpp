// spice_e2e — runs one workload of the end-to-end benchmark in this process.
//
//   spice_e2e --workload fig4_sweep|grid_campaign|federated_pipeline
//             --seed N --seconds S --trace 0|1 [--out-dir DIR]
//
// Prints host facts, notes and every check, then one line
//   E2E_RESULT {"correct":..,"attempted":..,"failed":..,"values":{..}}
// that e2e/run.py turns into the benchmark's result line (adding units
// from BENCHMARK.json). Exit code 1 when any check fails, 2 on bad usage
// or an error before a result exists.

#include <cmath>
#include <cstdio>
#include <exception>
#include <string>

#include "bench.hpp"

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: spice_e2e --workload fig4_sweep|grid_campaign|federated_pipeline "
               "--seed N --seconds S --trace 0|1 [--out-dir DIR]\n");
}

bool parse(int argc, char** argv, e2e::Options& options) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      options.workload = value;
    } else if (key == "--seed") {
      options.seed = std::stoull(value);
    } else if (key == "--seconds") {
      options.seconds = std::stod(value);
    } else if (key == "--trace") {
      options.trace = value == "1";
    } else if (key == "--out-dir") {
      options.out_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !options.workload.empty() && options.seconds >= 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  e2e::Options options;
  try {
    if (!parse(argc, argv, options)) {
      usage();
      return 2;
    }
  } catch (const std::exception&) {
    usage();
    return 2;
  }

  e2e::Outcome outcome;
  e2e::SpanLog spans;
  e2e::SpanLog* trace = options.trace ? &spans : nullptr;
  try {
    if (options.workload == "fig4_sweep") {
      outcome = e2e::run_fig4_sweep(options, trace);
    } else if (options.workload == "grid_campaign") {
      outcome = e2e::run_grid_campaign(options, trace);
    } else if (options.workload == "federated_pipeline") {
      outcome = e2e::run_federated_pipeline(options, trace);
    } else {
      std::fprintf(stderr, "unknown workload '%s'\n", options.workload.c_str());
      usage();
      return 2;
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "workload %s failed: %s\n", options.workload.c_str(), error.what());
    return 2;
  }

  std::printf("workload: %s, seed %llu, %s run\n", options.workload.c_str(),
              static_cast<unsigned long long>(options.seed),
              options.trace ? "traced" : "untraced");
  for (const std::string& fact : e2e::host_facts()) std::printf("host %s\n", fact.c_str());
  for (const std::string& note : outcome.notes) std::printf("%s\n", note.c_str());
  if (trace != nullptr) {
    const std::string path =
        options.out_dir + "/spans_" + options.workload + "_" + std::to_string(options.seed) +
        ".json";
    spans.write_json(path);
    std::printf("spans: %zu written to %s\n", spans.spans().size(), path.c_str());
    std::printf("%-28s %6s %12s %12s\n", "span", "count", "total_s", "self_s");
    for (const auto& row : spans.self_times()) {
      std::printf("%-28s %6zu %12.6f %12.6f\n", row.name.c_str(), row.count, row.total_s,
                  row.self_s);
    }
  }
  std::printf("checks: %zu run, %zu failed\n", outcome.checks.count(),
              outcome.checks.failures().size());
  for (const std::string& failure : outcome.checks.failures()) {
    std::printf("CHECK FAILED: %s\n", failure.c_str());
  }

  std::string values;
  for (const auto& [name, value] : outcome.values) {
    if (!std::isfinite(value)) {
      std::fprintf(stderr, "metric %s is not finite\n", name.c_str());
      return 2;
    }
    char buffer[96];
    std::snprintf(buffer, sizeof(buffer), "%s\"%s\":%.17g", values.empty() ? "" : ",",
                  name.c_str(), value);
    values += buffer;
  }
  std::printf("E2E_RESULT {\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,\"values\":{%s}}\n",
              outcome.checks.ok() ? "true" : "false",
              static_cast<unsigned long long>(outcome.attempted),
              static_cast<unsigned long long>(outcome.failed), values.c_str());
  std::fflush(stdout);
  return outcome.checks.ok() ? 0 : 1;
}
