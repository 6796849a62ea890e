#pragma once
// Output checks of the end-to-end benchmark. Each check tests a property
// the method must have (Jensen's inequality, CPU-hour conservation, the
// IMD time identity, ...) or compares against a quantity the benchmark
// computes apart from the program (step counts, CPU-hour bounds). None
// compares with a stored copy of earlier output. The checks take plain
// result structs so the self-test can feed them corrupted results.

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "fe/jarzynski.hpp"
#include "grid/federation.hpp"
#include "obs/metrics.hpp"
#include "spice/campaign.hpp"
#include "steering/imd.hpp"

namespace e2e {

class CheckLog {
 public:
  /// Record one check; returns `ok`.
  bool expect(bool ok, std::string what);
  [[nodiscard]] bool ok() const { return failures_.empty(); }
  [[nodiscard]] std::size_t count() const { return count_; }
  [[nodiscard]] const std::vector<std::string>& failures() const { return failures_; }

 private:
  std::size_t count_ = 0;
  std::vector<std::string> failures_;
};

/// Every φ is finite and φ(0) = 0 (linear interpolation at λ = 0 when the
/// grid does not start there).
void check_pmf(CheckLog& log, const spice::fe::PmfEstimate& pmf, std::string_view what);

/// Jensen's inequality for the exponential average: ⟨W⟩ − ΔF_JE ≥ 0, both
/// as the cell reports it and from its streaming convergence state.
void check_jensen(CheckLog& log, const spice::core::ComboResult& cell);

/// MD steps of one pull at velocity v under the protocol: distance / (v·dt).
[[nodiscard]] std::uint64_t expected_pull_steps(double distance_angstrom, double velocity_ns,
                                                double dt_ps);

/// Each cell's md_steps = samples × pull steps, and — under the
/// equal-compute rule — every cell spends the same number of steps.
void check_cell_steps(CheckLog& log, const spice::core::SweepResult& sweep,
                      const spice::core::SweepConfig& config);

/// A cell that stopped early holds min_samples ≤ samples < cap; every
/// other cell holds exactly its cap.
void check_early_stop(CheckLog& log, const spice::core::ComboResult& cell, std::size_t cap,
                      std::size_t min_samples);

/// Every requested job completed and none failed.
void check_campaign_complete(CheckLog& log, const spice::grid::CampaignResult& result,
                             std::size_t requested, std::string_view what);

/// credited + wasted = consumed CPU-hours.
void check_cpu_conservation(CheckLog& log, const spice::grid::CpuAccounting& cpu,
                            std::string_view what);

/// Credited CPU-hours lie within [Σ procs·runtime ÷ max speed,
/// Σ procs·runtime ÷ min speed], the sum taken over the benchmark's own
/// job list and the speeds over the sites that ran them.
void check_credited_bounds(CheckLog& log, double credited_cpu_hours, double reference_cpu_hours,
                           double min_speed, double max_speed, std::string_view what);

/// Makespan ≥ longest job ÷ fastest site.
void check_makespan(CheckLog& log, double makespan_hours, double longest_job_hours,
                    double max_speed, std::string_view what);

/// IMD session time identity: wall = ideal + stall.
void check_imd_identity(CheckLog& log, const spice::steering::ImdMetrics& imd);

/// Summed counter deltas of an exporter's JSONL series equal the
/// registry's final totals, counter by counter.
void check_exporter_deltas(CheckLog& log, const std::vector<std::string>& jsonl_records,
                           const spice::obs::MetricsSnapshot& final_snapshot);

}  // namespace e2e
