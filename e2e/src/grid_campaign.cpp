// grid_campaign — a scaled federated campaign through the grid public API:
// a 1000-site synthetic federation with lazily armed random site failures,
// and 12 sequential waves of 25k Broker jobs that use checkpoint credit
// and keep no per-job records (bench/grid_scale's wave pattern). No MD
// runs, so the DES, JobTable, sites, broker and fault injector do all the
// work.
//
// Set-up (federation build + fault arming) happens before each pass and is
// not part of its time; the first one, from process start, is setup_s.

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <vector>

#include "bench.hpp"
#include "common/rng.hpp"
#include "grid/faults.hpp"
#include "grid/federation.hpp"
#include "obs/metrics.hpp"
#include "testkit/golden.hpp"

namespace e2e {

namespace grid = spice::grid;

namespace {

constexpr std::size_t kSites = 1000;
constexpr std::size_t kWaves = 12;
constexpr std::size_t kWaveJobs = 25000;

/// Job i of wave w: a pure function of (seed, wave, index).
grid::Job campaign_job(std::uint64_t seed, std::size_t wave, std::size_t i) {
  spice::SplitMix64 mix(seed ^ (0x6a6f62ULL << 32) ^ (wave * 0x9e3779b97f4a7c15ULL + i));
  static const int kProcs[] = {4, 8, 16, 32};
  grid::Job job;
  job.id = static_cast<grid::JobId>(wave * kWaveJobs + i + 1);
  job.kind = grid::JobKind::Campaign;
  job.processors = kProcs[mix.next() % 4];
  job.runtime_hours = 1.0 + 4.0 * (static_cast<double>(mix.next() >> 11) * 0x1.0p-53);
  job.checkpoint_interval_hours = 1.0;
  return job;
}

grid::FaultConfig fault_config(std::uint64_t seed) {
  grid::FaultConfig faults;
  faults.seed = seed;
  faults.site_mtbf_hours = 300.0;
  faults.mean_outage_hours = 2.0;
  faults.horizon_hours = 200.0;
  faults.lazy_arming = true;
  return faults;
}

/// One federation with its fault process armed. Not movable: the
/// federation and injector hold references into it.
struct World {
  grid::EventQueue events;
  grid::Federation federation{events};
  std::optional<grid::FaultInjector> injector;

  World(std::uint64_t seed, SpanLog* spans) {
    {
      Scope scope(spans, "grid.federation_build");
      grid::build_synthetic_federation(federation, kSites, seed);
    }
    Scope scope(spans, "grid.fault_arm");
    injector.emplace(federation, fault_config(seed));
    injector->arm();
  }
  World(const World&) = delete;
  World& operator=(const World&) = delete;
};

/// The campaign's outcome as bytes, for the same-seed replay digest.
void append_campaign(std::vector<std::uint8_t>& bytes, const grid::CampaignResult& r) {
  auto put = [&bytes](const void* p, std::size_t n) {
    const auto* b = static_cast<const std::uint8_t*>(p);
    bytes.insert(bytes.end(), b, b + n);
  };
  auto u64 = [&put](std::uint64_t x) { put(&x, sizeof(x)); };
  auto f64 = [&put](double x) { put(&x, sizeof(x)); };
  u64(r.completed);
  u64(r.failed);
  f64(r.makespan_hours);
  f64(r.total_cpu_hours);
  f64(r.credited_cpu_hours);
  f64(r.wasted_cpu_hours);
  u64(r.held_dispatches);
  u64(r.checkpoint_restarts);
  f64(r.wait_stats.mean_hours);
  f64(r.wait_stats.p95_hours);
  f64(r.wait_stats.max_hours);
  for (const auto& share : r.site_shares) {
    put(share.site.data(), share.site.size());
    u64(share.jobs);
    f64(share.cpu_hours);
  }
}

/// What the benchmark knows about a wave from its own job list.
struct WaveReference {
  double cpu_hours = 0.0;  ///< Σ procs × runtime at speed 1
  double longest_hours = 0.0;
};

struct PassTotals {
  double submit_s = 0.0, des_s = 0.0, result_s = 0.0;
  double consumed = 0.0, credited = 0.0;
  std::uint64_t events = 0, checkpoint_restarts = 0, digest = 0;
  std::size_t peak_rows = 0;
  std::uint64_t dispatches = 0, requeues = 0, holds = 0, outages = 0;
};

}  // namespace

Outcome run_grid_campaign(const Options& options, SpanLog* spans) {
  Outcome out;
  const std::uint64_t seed = options.seed;
  auto world = std::make_unique<World>(seed, spans);
  const double setup_s = since_process_start_s();
  out.notes.push_back("setup_s: " + std::to_string(setup_s));

  if (spans != nullptr) spice::obs::set_metrics_enabled(true);
  auto& registry = spice::obs::metrics();
  spice::obs::Counter* counters[] = {&registry.counter("grid.broker.dispatches"),
                                     &registry.counter("grid.broker.requeues"),
                                     &registry.counter("grid.broker.holds"),
                                     &registry.counter("grid.site.outages")};

  std::vector<WaveReference> reference(kWaves);
  for (std::size_t w = 0; w < kWaves; ++w) {
    for (std::size_t i = 0; i < kWaveJobs; ++i) {
      const grid::Job job = campaign_job(seed, w, i);
      reference[w].cpu_hours += job.processors * job.runtime_hours;
      reference[w].longest_hours = std::max(reference[w].longest_hours, job.runtime_hours);
    }
  }

  std::vector<PassTotals> totals;
  double rss = 0.0;
  const std::vector<double> pass_s = run_passes(options, 2, [&](std::size_t p) {
    if (p > 0) world = std::make_unique<World>(seed, spans);
    grid::Federation& federation = world->federation;
    double min_speed = std::numeric_limits<double>::infinity();
    double max_speed = 0.0;
    for (const auto& site : federation.sites()) {
      min_speed = std::min(min_speed, site->spec().speed);
      max_speed = std::max(max_speed, site->spec().speed);
    }
    std::uint64_t counter0[4];
    for (int c = 0; c < 4; ++c) counter0[c] = counters[c]->value();

    PassTotals pass;
    std::vector<std::uint8_t> outcome_bytes;
    std::vector<grid::CampaignResult> results;
    results.reserve(kWaves);
    const Clock::time_point t0 = Clock::now();
    {
      Scope pass_scope(spans, "grid.pass");
      for (std::size_t w = 0; w < kWaves; ++w) {
        Scope wave_scope(spans, "grid.wave");
        grid::CampaignConfig config;
        config.job_factory = [seed, w](std::size_t i) { return campaign_job(seed, w, i); };
        config.job_count = kWaveJobs;
        config.policy = grid::BrokerPolicy::LeastBacklog;
        config.keep_finished_jobs = false;
        config.max_requeues = 10;
        config.retry.max_holds = 200;
        std::optional<Scope> phase;
        Clock::time_point mark = Clock::now();
        auto lap = [&mark] {
          const double s = seconds_since(mark);
          mark = Clock::now();
          return s;
        };
        phase.emplace(spans, "grid.submit");
        grid::Broker broker(federation, config);
        broker.submit_all();
        phase.reset();
        pass.submit_s += lap();
        phase.emplace(spans, "grid.des");
        while (!broker.done() && world->events.step()) {
        }
        phase.reset();
        pass.des_s += lap();
        phase.emplace(spans, "grid.result");
        results.push_back(broker.result());
        phase.reset();
        pass.result_s += lap();
      }
    }
    const double seconds = seconds_since(t0);
    rss = std::max(rss, peak_rss_mib());

    // Checks, outside the pass time.
    for (std::size_t w = 0; w < kWaves; ++w) {
      const grid::CampaignResult& r = results[w];
      const std::string name = "pass " + std::to_string(p) + " wave " + std::to_string(w);
      check_campaign_complete(out.checks, r, kWaveJobs, name);
      check_cpu_conservation(out.checks, r.cpu, name);
      check_credited_bounds(out.checks, r.credited_cpu_hours, reference[w].cpu_hours, min_speed,
                            max_speed, name);
      check_makespan(out.checks, r.makespan_hours, reference[w].longest_hours, max_speed, name);
      out.attempted += kWaveJobs;
      out.failed += kWaveJobs - std::min(r.completed, kWaveJobs);
      append_campaign(outcome_bytes, r);
      pass.consumed += r.cpu.consumed_cpu_hours;
      pass.credited += r.cpu.credited_cpu_hours;
      pass.checkpoint_restarts += r.checkpoint_restarts;
    }
    pass.digest = spice::testkit::fnv1a64(outcome_bytes);
    pass.events = world->events.processed();
    pass.peak_rows = federation.jobs().peak_rows();
    pass.dispatches = counters[0]->value() - counter0[0];
    pass.requeues = counters[1]->value() - counter0[1];
    pass.holds = counters[2]->value() - counter0[2];
    pass.outages = counters[3]->value() - counter0[3];
    if (p > 0) {
      out.checks.expect(pass.digest == totals.front().digest,
                        "pass " + std::to_string(p) + ": campaign digest differs from pass 0 "
                        "at the same seed");
    }
    totals.push_back(pass);
    return seconds;
  });

  const double wall = fastest_pass(pass_s);
  out.notes.push_back("pass_s: " + join(pass_s));
  const std::size_t jobs_per_pass = kWaves * kWaveJobs;
  char digest[32];
  std::snprintf(digest, sizeof(digest), "%016llx",
                static_cast<unsigned long long>(totals.front().digest));
  out.notes.push_back("passes: " + std::to_string(pass_s.size()) + ", jobs per pass " +
                      std::to_string(jobs_per_pass) + ", campaign digest " + digest);
  out.notes.push_back("jobs_per_s: " + std::to_string(jobs_per_pass / wall));
  if (spans == nullptr) {
    out.values = {{"wall_s", wall},
                  {"setup_s", setup_s},
                  {"ops_per_s", static_cast<double>(jobs_per_pass) / wall},
                  {"peak_rss_mib", rss}};
    return out;
  }
  auto per_pass = [&totals](auto field) {
    std::vector<double> v;
    for (const PassTotals& t : totals) v.push_back(static_cast<double>(field(t)));
    return median(v);
  };
  const double des_s = per_pass([](const PassTotals& t) { return t.des_s; });
  const double events = per_pass([](const PassTotals& t) { return t.events; });
  out.values = {
      {"traced.wall_s", wall},
      {"grid.jobs_per_s", static_cast<double>(jobs_per_pass) / wall},
      {"grid.federation_build_s", median(spans->durations("grid.federation_build"))},
      {"grid.fault_arm_s", median(spans->durations("grid.fault_arm"))},
      {"grid.submit_s", per_pass([](const PassTotals& t) { return t.submit_s; })},
      {"grid.des_s", des_s},
      {"grid.result_s", per_pass([](const PassTotals& t) { return t.result_s; })},
      {"grid.des_events", events},
      {"grid.ns_per_event", des_s * 1e9 / events},
      {"grid.dispatches", per_pass([](const PassTotals& t) { return t.dispatches; })},
      {"grid.requeues", per_pass([](const PassTotals& t) { return t.requeues; })},
      {"grid.holds", per_pass([](const PassTotals& t) { return t.holds; })},
      {"grid.checkpoint_restarts",
       per_pass([](const PassTotals& t) { return t.checkpoint_restarts; })},
      {"grid.outages", per_pass([](const PassTotals& t) { return t.outages; })},
      {"grid.credited_cpu_fraction",
       per_pass([](const PassTotals& t) { return t.credited / t.consumed; })},
      {"grid.peak_rows", per_pass([](const PassTotals& t) { return t.peak_rows; })},
  };
  return out;
}

}  // namespace e2e
