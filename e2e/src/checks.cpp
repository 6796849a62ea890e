#include "checks.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>

#include "common/json.hpp"

namespace e2e {

namespace {

std::string fmt(const char* format, double a, double b = 0.0, double c = 0.0) {
  char buffer[160];
  std::snprintf(buffer, sizeof(buffer), format, a, b, c);
  return buffer;
}

/// |a − b| within a relative tolerance of the larger magnitude (sums of
/// the same terms taken in a different order differ in the last bits).
bool close(double a, double b, double rel = 1e-9) {
  return std::abs(a - b) <= rel * std::max({1.0, std::abs(a), std::abs(b)});
}

}  // namespace

bool CheckLog::expect(bool ok, std::string what) {
  ++count_;
  if (!ok) failures_.push_back(std::move(what));
  return ok;
}

void check_pmf(CheckLog& log, const spice::fe::PmfEstimate& pmf, std::string_view what) {
  const std::string name(what);
  bool finite = !pmf.phi.empty() && pmf.phi.size() == pmf.lambda.size();
  for (const double phi : pmf.phi) finite = finite && std::isfinite(phi);
  for (const double lambda : pmf.lambda) finite = finite && std::isfinite(lambda);
  if (!log.expect(finite, name + ": PMF is finite")) return;
  // φ at λ = 0: the first point, or the interpolant between the two grid
  // points around 0 when the grid is offset (bin centres).
  double phi0 = pmf.phi.front();
  for (std::size_t i = 0; i + 1 < pmf.lambda.size(); ++i) {
    if (pmf.lambda[i] <= 0.0 && 0.0 <= pmf.lambda[i + 1]) {
      const double span = pmf.lambda[i + 1] - pmf.lambda[i];
      const double t = span > 0.0 ? -pmf.lambda[i] / span : 0.0;
      phi0 = pmf.phi[i] + t * (pmf.phi[i + 1] - pmf.phi[i]);
      break;
    }
  }
  log.expect(std::abs(phi0) <= 1e-9, name + fmt(": phi(0) = %.3g, expected 0", phi0));
}

void check_jensen(CheckLog& log, const spice::core::ComboResult& cell) {
  // −kT ln⟨e^{−W/kT}⟩ ≤ ⟨W⟩ holds exactly for any sample; the tolerance
  // only absorbs rounding.
  constexpr double kTolerance = 1e-9;
  const std::string name = fmt("cell (kappa %g, v %g)", cell.kappa_pn, cell.velocity_ns);
  log.expect(cell.mean_dissipated_work >= -kTolerance,
             name + fmt(": <W> - dF_JE = %.4g < 0 (Jensen)", cell.mean_dissipated_work));
  log.expect(cell.convergence.dissipated_work >= -kTolerance,
             name + fmt(": streaming <W> - dF = %.4g < 0 (Jensen)",
                        cell.convergence.dissipated_work));
}

std::uint64_t expected_pull_steps(double distance_angstrom, double velocity_ns, double dt_ps) {
  const double velocity_per_ps = velocity_ns * 1e-3;
  return static_cast<std::uint64_t>(std::llround(distance_angstrom / (velocity_per_ps * dt_ps)));
}

void check_cell_steps(CheckLog& log, const spice::core::SweepResult& sweep,
                      const spice::core::SweepConfig& config) {
  if (!log.expect(!sweep.combos.empty(), "sweep has cells")) return;
  const std::uint64_t first = sweep.combos.front().md_steps;
  for (const auto& cell : sweep.combos) {
    const std::uint64_t expected =
        cell.samples * expected_pull_steps(config.pull_distance, cell.velocity_ns,
                                           config.system.md.dt);
    log.expect(cell.md_steps == expected,
               fmt("cell (kappa %g, v %g): ", cell.kappa_pn, cell.velocity_ns) +
                   std::to_string(cell.md_steps) + " md_steps, expected samples x distance / "
                   "(v dt) = " + std::to_string(expected));
    log.expect(cell.md_steps == first,
               fmt("cell (kappa %g, v %g): ", cell.kappa_pn, cell.velocity_ns) +
                   std::to_string(cell.md_steps) + " md_steps differs from the first cell's " +
                   std::to_string(first) + " (equal compute per cell)");
  }
}

void check_early_stop(CheckLog& log, const spice::core::ComboResult& cell, std::size_t cap,
                      std::size_t min_samples) {
  const std::string name = fmt("cell (kappa %g, v %g): ", cell.kappa_pn, cell.velocity_ns) +
                           std::to_string(cell.samples) + " samples";
  if (cell.early_stopped) {
    log.expect(min_samples <= cell.samples && cell.samples < cap,
               name + ", stopped early outside [" + std::to_string(min_samples) + ", " +
                   std::to_string(cap) + ")");
  } else {
    log.expect(cell.samples == cap, name + ", ran to completion but its cap is " +
                                        std::to_string(cap));
  }
}

void check_campaign_complete(CheckLog& log, const spice::grid::CampaignResult& result,
                             std::size_t requested, std::string_view what) {
  const std::string name(what);
  log.expect(result.requested == requested && result.completed == requested,
             name + ": " + std::to_string(result.completed) + " of " +
                 std::to_string(requested) + " jobs completed");
  log.expect(result.failed == 0, name + ": " + std::to_string(result.failed) + " jobs failed");
}

void check_cpu_conservation(CheckLog& log, const spice::grid::CpuAccounting& cpu,
                            std::string_view what) {
  log.expect(close(cpu.credited_cpu_hours + cpu.wasted_cpu_hours, cpu.consumed_cpu_hours),
             std::string(what) + fmt(": credited %.6f + wasted %.6f != consumed %.6f CPU-h",
                                     cpu.credited_cpu_hours, cpu.wasted_cpu_hours,
                                     cpu.consumed_cpu_hours));
}

void check_credited_bounds(CheckLog& log, double credited_cpu_hours, double reference_cpu_hours,
                           double min_speed, double max_speed, std::string_view what) {
  const double lo = reference_cpu_hours / max_speed;
  const double hi = reference_cpu_hours / min_speed;
  const double slack = 1e-9 * std::max(1.0, hi);
  log.expect(lo - slack <= credited_cpu_hours && credited_cpu_hours <= hi + slack,
             std::string(what) + fmt(": credited %.6f CPU-h outside [%.6f, %.6f]",
                                     credited_cpu_hours, lo, hi));
}

void check_makespan(CheckLog& log, double makespan_hours, double longest_job_hours,
                    double max_speed, std::string_view what) {
  const double floor = longest_job_hours / max_speed;
  log.expect(makespan_hours >= floor * (1.0 - 1e-12),
             std::string(what) + fmt(": makespan %.6f h below longest job / fastest site "
                                     "= %.6f h", makespan_hours, floor));
}

void check_imd_identity(CheckLog& log, const spice::steering::ImdMetrics& imd) {
  log.expect(imd.wall_seconds > 0.0 && close(imd.wall_seconds,
                                             imd.ideal_seconds + imd.stall_seconds),
             fmt("IMD: wall %.9g s != ideal %.9g s + stall %.9g s", imd.wall_seconds,
                 imd.ideal_seconds, imd.stall_seconds));
}

namespace {

/// Sum the integer members of a record's "counters" object into `sums`.
/// The exporter writes flat {"name":int,...} objects of plain names.
bool add_counter_deltas(const std::string& record, std::map<std::string, long long>& sums) {
  const std::string key = "\"counters\":{";
  std::size_t pos = record.find(key);
  if (pos == std::string::npos) return false;
  pos += key.size();
  while (pos < record.size() && record[pos] != '}') {
    if (record[pos] == ',') ++pos;
    if (pos >= record.size() || record[pos] != '"') return false;
    const std::size_t name_end = record.find('"', pos + 1);
    if (name_end == std::string::npos || name_end + 1 >= record.size() ||
        record[name_end + 1] != ':') {
      return false;
    }
    const std::string name = record.substr(pos + 1, name_end - pos - 1);
    std::size_t used = 0;
    const long long delta = std::stoll(record.substr(name_end + 2), &used);
    sums[name] += delta;
    pos = name_end + 2 + used;
  }
  return pos < record.size();
}

}  // namespace

void check_exporter_deltas(CheckLog& log, const std::vector<std::string>& jsonl_records,
                           const spice::obs::MetricsSnapshot& final_snapshot) {
  if (!log.expect(!jsonl_records.empty(), "exporter wrote JSONL records")) return;
  std::map<std::string, long long> sums;
  std::size_t invalid = 0;
  for (const std::string& record : jsonl_records) {
    if (!spice::json_is_valid(record) || !add_counter_deltas(record, sums)) ++invalid;
  }
  log.expect(invalid == 0, std::to_string(invalid) + " exporter JSONL records do not parse");
  std::size_t mismatched = 0;
  std::string first_mismatch;
  for (const auto& counter : final_snapshot.counters) {
    // The exporter counts a snapshot after writing it, so its own counter
    // can never appear in the record it is counting.
    if (counter.name == "obs.export.snapshots") continue;
    const long long total = static_cast<long long>(counter.value);
    const auto it = sums.find(counter.name);
    const long long summed = it == sums.end() ? 0 : it->second;
    if (summed != total) {
      if (mismatched++ == 0) {
        first_mismatch = counter.name + " deltas sum to " + std::to_string(summed) +
                         ", registry total " + std::to_string(total);
      }
    }
  }
  log.expect(mismatched == 0, std::to_string(mismatched) +
                                  " counters' exporter deltas differ from the registry (" +
                                  first_mismatch + ")");
}

}  // namespace e2e
