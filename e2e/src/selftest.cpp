// spice_e2e_selftest — shows that every output check of the benchmark can
// fail. Each check first accepts a real (small) result of the program,
// then must reject a corrupted copy of it. Exit code 0 only when every
// check accepted the real result and rejected every corruption.
//
//   python3 e2e/run.py --selftest

#include <algorithm>
#include <cstdio>
#include <functional>
#include <limits>
#include <string>

#include "checks.hpp"
#include "common/rng.hpp"
#include "grid/faults.hpp"

namespace {

namespace sc = spice::core;
namespace grid = spice::grid;

int g_wrong = 0;

void expect(bool accept, const std::string& what, const std::function<void(e2e::CheckLog&)>& run) {
  e2e::CheckLog log;
  run(log);
  const bool ok = accept ? log.ok() : !log.ok();
  if (!ok) ++g_wrong;
  std::printf("[%s] %s %s%s\n", ok ? "ok" : "WRONG", accept ? "accepts" : "rejects",
              what.c_str(), log.ok() ? "" : (" -> " + log.failures().front()).c_str());
}

sc::SweepConfig small_sweep_config() {
  sc::SweepConfig config;
  config.use_small_system();
  config.kappas_pn = {100.0};
  config.velocities_ns = {50.0, 100.0};
  config.samples_at_slowest = 2;
  config.grid_points = 6;
  config.bootstrap_resamples = 8;
  config.seed = 7;
  return config;
}

struct SmallCampaign {
  grid::CampaignResult result;
  double reference_cpu = 0.0;
  double longest = 0.0;
  double min_speed = 1e300;
  double max_speed = 0.0;
  std::size_t jobs = 400;
};

SmallCampaign run_small_campaign() {
  SmallCampaign out;
  grid::EventQueue events;
  grid::Federation federation(events);
  grid::build_synthetic_federation(federation, 16, 11);
  grid::FaultConfig faults;
  faults.seed = 11;
  faults.site_mtbf_hours = 20.0;
  faults.mean_outage_hours = 2.0;
  faults.horizon_hours = 100.0;
  faults.lazy_arming = true;
  grid::FaultInjector injector(federation, faults);
  injector.arm();
  for (const auto& site : federation.sites()) {
    out.min_speed = std::min(out.min_speed, site->spec().speed);
    out.max_speed = std::max(out.max_speed, site->spec().speed);
  }
  grid::CampaignConfig config;
  for (std::size_t i = 0; i < out.jobs; ++i) {
    spice::SplitMix64 mix(i);
    grid::Job job;
    job.id = i + 1;
    job.kind = grid::JobKind::Campaign;
    job.processors = 8 << (mix.next() % 3);
    job.runtime_hours = 1.0 + static_cast<double>(mix.next() % 4);
    job.checkpoint_interval_hours = 1.0;
    out.reference_cpu += job.processors * job.runtime_hours;
    out.longest = std::max(out.longest, job.runtime_hours);
    config.jobs.push_back(job);
  }
  config.max_requeues = 10;
  config.retry.max_holds = 200;
  grid::Broker broker(federation, config);
  broker.submit_all();
  while (!broker.done() && events.step()) {
  }
  out.result = broker.result();
  return out;
}

}  // namespace

int main() {
  using e2e::CheckLog;

  // --- sweep checks on a real small sweep ----------------------------------
  const sc::SweepConfig config = small_sweep_config();
  const sc::SweepResult sweep = sc::run_parameter_sweep(config, true);
  const sc::ComboResult& cell = sweep.combos.front();

  expect(true, "a real PMF", [&](CheckLog& log) { e2e::check_pmf(log, cell.pmf, "pmf"); });
  expect(true, "the real reference PMF",
         [&](CheckLog& log) { e2e::check_pmf(log, sweep.reference, "reference"); });
  expect(false, "a PMF with phi(0) != 0", [&](CheckLog& log) {
    spice::fe::PmfEstimate bad = cell.pmf;
    bad.phi.front() += 0.25;
    e2e::check_pmf(log, bad, "pmf");
  });
  expect(false, "a PMF with a non-finite point", [&](CheckLog& log) {
    spice::fe::PmfEstimate bad = cell.pmf;
    bad.phi.back() = std::numeric_limits<double>::quiet_NaN();
    e2e::check_pmf(log, bad, "pmf");
  });
  expect(true, "real cells (Jensen)", [&](CheckLog& log) {
    for (const auto& c : sweep.combos) e2e::check_jensen(log, c);
  });
  expect(false, "a cell with negative dissipated work", [&](CheckLog& log) {
    sc::ComboResult bad = cell;
    bad.mean_dissipated_work = -0.5;
    e2e::check_jensen(log, bad);
  });
  expect(true, "real cell md_steps", [&](CheckLog& log) {
    e2e::check_cell_steps(log, sweep, config);
  });
  expect(false, "unequal cell md_steps", [&](CheckLog& log) {
    sc::SweepResult bad = sweep;
    bad.combos.back().md_steps += bad.combos.back().md_steps / bad.combos.back().samples;
    e2e::check_cell_steps(log, bad, config);
  });
  expect(true, "a cell that ran to its cap", [&](CheckLog& log) {
    e2e::check_early_stop(log, cell, config.samples_for(cell.velocity_ns), 2);
  });
  expect(false, "an early-stopped cell at its cap", [&](CheckLog& log) {
    sc::ComboResult bad = cell;
    bad.early_stopped = true;
    e2e::check_early_stop(log, bad, config.samples_for(cell.velocity_ns), 2);
  });

  // --- grid checks on a real small faulted campaign ------------------------
  const SmallCampaign campaign = run_small_campaign();
  const grid::CampaignResult& result = campaign.result;
  expect(true, "a complete campaign", [&](CheckLog& log) {
    e2e::check_campaign_complete(log, result, campaign.jobs, "campaign");
  });
  expect(false, "a campaign with a missing job", [&](CheckLog& log) {
    grid::CampaignResult bad = result;
    bad.completed -= 1;
    e2e::check_campaign_complete(log, bad, campaign.jobs, "campaign");
  });
  expect(false, "a campaign with a failed job", [&](CheckLog& log) {
    grid::CampaignResult bad = result;
    bad.failed = 1;
    e2e::check_campaign_complete(log, bad, campaign.jobs, "campaign");
  });
  expect(true, "real CPU-hour accounting", [&](CheckLog& log) {
    e2e::check_cpu_conservation(log, result.cpu, "campaign");
  });
  expect(false, "credited + wasted != consumed", [&](CheckLog& log) {
    grid::CpuAccounting bad = result.cpu;
    bad.wasted_cpu_hours += 1.0;
    e2e::check_cpu_conservation(log, bad, "campaign");
  });
  expect(true, "real credited CPU-hours", [&](CheckLog& log) {
    e2e::check_credited_bounds(log, result.credited_cpu_hours, campaign.reference_cpu,
                               campaign.min_speed, campaign.max_speed, "campaign");
  });
  expect(false, "credited CPU-hours above the slowest-site bound", [&](CheckLog& log) {
    e2e::check_credited_bounds(log, 1.5 * campaign.reference_cpu / campaign.min_speed,
                               campaign.reference_cpu, campaign.min_speed, campaign.max_speed,
                               "campaign");
  });
  expect(true, "the real makespan", [&](CheckLog& log) {
    e2e::check_makespan(log, result.makespan_hours, campaign.longest, campaign.max_speed,
                        "campaign");
  });
  expect(false, "a makespan shorter than the longest job", [&](CheckLog& log) {
    e2e::check_makespan(log, 0.5 * campaign.longest / campaign.max_speed, campaign.longest,
                        campaign.max_speed, "campaign");
  });

  // --- IMD identity and exporter deltas ------------------------------------
  spice::steering::ImdMetrics imd;
  imd.ideal_seconds = 7.25;
  imd.stall_seconds = 1.5;
  imd.wall_seconds = imd.ideal_seconds + imd.stall_seconds;
  expect(true, "wall = ideal + stall", [&](CheckLog& log) { e2e::check_imd_identity(log, imd); });
  expect(false, "wall != ideal + stall", [&](CheckLog& log) {
    spice::steering::ImdMetrics bad = imd;
    bad.stall_seconds += 0.5;
    e2e::check_imd_identity(log, bad);
  });
  spice::obs::MetricsSnapshot final_snapshot;
  final_snapshot.counters = {{"a.count", 7}, {"b.count", 3}};
  const std::vector<std::string> records = {
      R"({"seq":0,"t_us":1,"counters":{"a.count":5,"b.count":3},"gauges":{},"histograms":{}})",
      R"({"seq":1,"t_us":2,"counters":{"a.count":2},"gauges":{},"histograms":{}})"};
  expect(true, "exporter deltas summing to the registry", [&](CheckLog& log) {
    e2e::check_exporter_deltas(log, records, final_snapshot);
  });
  expect(false, "exporter deltas missing a record", [&](CheckLog& log) {
    e2e::check_exporter_deltas(log, {records.front()}, final_snapshot);
  });

  std::printf("selftest: %s (%d wrong)\n", g_wrong == 0 ? "PASS" : "FAIL", g_wrong);
  return g_wrong == 0 ? 0 : 1;
}
