// federated_pipeline — core::run_full_pipeline at examples/federated_campaign's
// settings, with the observability that example turns on: metrics, the
// wall-clock Tracer (100k-event cap, keep-newest), the DES virtual-clock
// tracer and the 1 Hz SnapshotExporter. Early stop runs pulls one at a
// time on standalone engines, the IMD phase drives steering over net, and
// grid runs the paper's 72-job federation.
//
// Untraced pass: run_full_pipeline. Traced pass: the same phases called one
// by one, production split into its sweep and its grid execution. Each
// pass ends with the exporter stopped and both traces saved, so
// obs.trace_save_s is part of the pass; observability set-up comes before.

#include <algorithm>
#include <fstream>
#include <limits>
#include <memory>

#include "bench.hpp"
#include "common/rng.hpp"
#include "obs/obs.hpp"
#include "spice/pipeline.hpp"

namespace e2e {

namespace sc = spice::core;
namespace obs = spice::obs;

namespace {

sc::PipelineConfig pipeline_config(std::uint64_t seed) {
  sc::PipelineConfig config;
  config.seed = seed;
  config.sweep.seed = seed;
  config.sweep.kappas_pn = {10.0, 100.0, 1000.0};
  config.sweep.velocities_ns = {25.0, 100.0};
  config.sweep.samples_at_slowest = 4;
  config.sweep.grid_points = 11;
  config.sweep.bootstrap_resamples = 48;
  config.sweep.early_stop_error_kcal = 1.0;
  config.sweep.early_stop_min_samples = 4;
  config.imd_steps = 800;
  config.paper_replicas_per_cell = 6;
  config.execution.progress_interval_hours = 6.0;
  return config;
}

/// The observability the example runs, fresh for every pass.
struct ObsRig {
  obs::Tracer wall_tracer{"spice pipeline (wall clock)"};
  obs::Tracer grid_tracer{"federated campaign (simulated time)"};
  std::unique_ptr<obs::SnapshotExporter> exporter;
  std::string jsonl_path;
  obs::MetricsSnapshot final_snapshot;

  explicit ObsRig(const std::string& out_dir) {
    obs::set_metrics_enabled(true);
    obs::set_tracing_enabled(true);
    wall_tracer.set_event_limit(100'000);
    wall_tracer.set_drop_policy(obs::DropPolicy::KeepNewest);
    obs::set_process_tracer(&wall_tracer);
    obs::ExporterConfig config;
    config.prometheus_path = out_dir + "/federated_pipeline_metrics.prom";
    config.jsonl_path = jsonl_path = out_dir + "/federated_pipeline_metrics.jsonl";
    config.period_s = 1.0;
    exporter = std::make_unique<obs::SnapshotExporter>(config);
    exporter->start();
  }
  ~ObsRig() { obs::set_process_tracer(nullptr); }
  ObsRig(const ObsRig&) = delete;
  ObsRig& operator=(const ObsRig&) = delete;

  /// Stop exporting and write both traces (the end of every pass). The
  /// registry is snapshotted as the exporter stops, before anything else
  /// can count, so its series must sum to exactly that snapshot.
  void finish(const std::string& out_dir) {
    exporter->stop();
    final_snapshot = obs::metrics().snapshot();
    obs::set_process_tracer(nullptr);
    grid_tracer.save(out_dir + "/federated_pipeline_trace.json");
    wall_tracer.save(out_dir + "/federated_pipeline_wall_trace.json");
  }
};

/// run_full_pipeline's phases called one by one, each under a span; the
/// production phase is split into its sweep and its grid execution.
sc::PipelineReport traced_pipeline(const sc::PipelineConfig& config, SpanLog* spans) {
  sc::PipelineReport report;
  {
    Scope scope(spans, "spice.static");
    report.statics = sc::run_static_analysis(config);
  }
  {
    Scope scope(spans, "spice.interactive");
    report.interactive = sc::run_interactive_phase(config);
  }
  {
    Scope scope(spans, "spice.preprocessing");
    report.preprocessing = sc::run_preprocessing_phase(config);
  }
  sc::ProductionReport& production = report.production;
  sc::SweepConfig sweep = config.sweep;
  sweep.kappas_pn = report.preprocessing.retained_kappas_pn;
  {
    Scope scope(spans, "spice.production_sweep");
    production.sweep = sc::run_parameter_sweep(sweep, /*compute_reference=*/true);
    production.optimal = sc::select_optimal_parameters(production.sweep.scores);
  }
  {
    Scope scope(spans, "spice.production_grid");
    production.plan = sc::plan_production_jobs(sweep, config.cost, config.paper_replicas_per_cell);
    sc::ExecutionOptions exec = config.execution;
    exec.seed = config.seed;
    production.execution = sc::execute_on_federation(production.plan, exec);
    production.cost = sc::smdje_campaign_cost(
        config.cost, production.plan.jobs.size(),
        production.plan.total_simulated_ns / static_cast<double>(production.plan.jobs.size()),
        /*vanilla_microseconds=*/10.0);
  }
  return report;
}

struct PassFacts {
  double save_s = 0;
  double steps = 0, evals = 0, recorder_events = 0;
  double tracer_events = 0, tracer_dropped = 0, exporter_snapshots = 0;
  double pulls = 0, jobs = 0, early_stopped = 0;
  double imd_frames_sent = 0, imd_frames_timed_out = 0;
};

}  // namespace

Outcome run_federated_pipeline(const Options& options, SpanLog* spans) {
  Outcome out;
  // A pass runs the pipeline at kSeedsPerPass seeds drawn from --seed, the
  // same seeds in every pass. Early stop makes one pipeline's work depend
  // on its seed (54 to 70 pulls over seeds 1-7); a pass over several seeds
  // moves less between runs than one seed would.
  constexpr std::size_t kSeedsPerPass = 2;
  std::vector<std::uint64_t> seeds;
  spice::SplitMix64 seed_stream(options.seed);
  for (std::size_t k = 0; k < kSeedsPerPass; ++k) seeds.push_back(seed_stream.next());
  const obs::ContextScope campaign_scope(obs::TraceContext::campaign(1));

  // Set-up: observability, then phase 1 (static structural analysis).
  auto rig = [&] {
    Scope scope(spans, "obs.setup");
    return std::make_unique<ObsRig>(options.out_dir);
  }();
  {
    Scope scope(spans, "setup.static");
    const sc::StaticAnalysisReport statics = sc::run_static_analysis(pipeline_config(seeds[0]));
    out.checks.expect(statics.constriction_radius > 0.0 && !statics.rendering.empty(),
                      "static analysis: constriction found and rendered");
  }
  const double setup_s = since_process_start_s();
  out.notes.push_back("setup_s: " + std::to_string(setup_s));

  // Site speeds of the paper's federation, for the credited CPU-hour bounds.
  spice::grid::EventQueue idle_events;
  spice::grid::Federation paper_federation(idle_events);
  spice::grid::build_spice_federation(paper_federation);

  obs::MetricsRegistry& registry = obs::metrics();
  obs::Counter& steps_counter = registry.counter("md.engine.steps");
  obs::Counter& evals_counter = registry.counter("md.engine.force_evals");

  std::vector<PassFacts> facts;
  double rss = 0.0;
  const std::vector<double> pass_s = run_passes(options, 2, [&](std::size_t p) {
    PassFacts f;
    double seconds = 0.0;
    for (std::size_t k = 0; k < kSeedsPerPass; ++k) {
      if (rig == nullptr) {
        Scope scope(spans, "obs.setup");
        rig = std::make_unique<ObsRig>(options.out_dir);
      }
      sc::PipelineConfig config = pipeline_config(seeds[k]);
      sc::CampaignProgress last_progress;
      config.execution.tracer = &rig->grid_tracer;
      config.execution.on_progress = [&last_progress](const sc::CampaignProgress& progress) {
        last_progress = progress;
      };
      const double steps0 = static_cast<double>(steps_counter.value());
      const double evals0 = static_cast<double>(evals_counter.value());
      const double recorded0 = static_cast<double>(obs::flight_recorder().recorded_count());

      const Clock::time_point t0 = Clock::now();
      const sc::PipelineReport report =
          spans != nullptr ? traced_pipeline(config, spans) : sc::run_full_pipeline(config);
      {
        Scope scope(spans, "obs.trace_save");
        const Clock::time_point save0 = Clock::now();
        rig->finish(options.out_dir);
        f.save_s += seconds_since(save0);
      }
      seconds += seconds_since(t0);
      rss = std::max(rss, peak_rss_mib());

      f.steps += static_cast<double>(steps_counter.value()) - steps0;
      f.evals += static_cast<double>(evals_counter.value()) - evals0;
      f.recorder_events +=
          static_cast<double>(obs::flight_recorder().recorded_count()) - recorded0;
      f.tracer_events += static_cast<double>(rig->wall_tracer.event_count());
      f.tracer_dropped += static_cast<double>(rig->wall_tracer.dropped_count());
      f.exporter_snapshots += static_cast<double>(rig->exporter->exports_written());

      // --- checks, outside the pass time ----------------------------------
      const std::string name = "pass " + std::to_string(p) + " pipeline " + std::to_string(k);
      const sc::ProductionReport& production = report.production;
      const spice::grid::CampaignResult& campaign = production.execution.campaign;
      const std::size_t jobs = production.plan.jobs.size();
      out.checks.expect(jobs == production.sweep.combos.size() * config.paper_replicas_per_cell,
                        name + ": " + std::to_string(jobs) + " production jobs planned");
      check_campaign_complete(out.checks, campaign, jobs, name + " production grid");
      check_cpu_conservation(out.checks, campaign.cpu, name + " production grid");
      double reference_cpu = 0.0;
      for (const auto& job : production.plan.jobs) {
        reference_cpu += job.processors * job.runtime_hours;
      }
      double min_speed = std::numeric_limits<double>::infinity();
      double max_speed = 0.0;
      for (const auto& [site_name, count] : campaign.jobs_per_site) {
        const spice::grid::Site* site = paper_federation.find(site_name);
        if (!out.checks.expect(site != nullptr, name + ": jobs ran on unknown site " + site_name)) {
          continue;
        }
        min_speed = std::min(min_speed, site->spec().speed);
        max_speed = std::max(max_speed, site->spec().speed);
      }
      check_credited_bounds(out.checks, campaign.credited_cpu_hours, reference_cpu, min_speed,
                            max_speed, name + " production grid");
      check_imd_identity(out.checks, report.interactive.imd);

      const std::size_t min_samples =
          std::max<std::size_t>(2, config.sweep.early_stop_min_samples);
      for (const auto& cell : production.sweep.combos) {
        check_early_stop(out.checks, cell, config.sweep.samples_for(cell.velocity_ns),
                         min_samples);
        check_pmf(out.checks, cell.pmf, name + " production cell PMF");
      }
      check_pmf(out.checks, production.sweep.reference, name + " production WHAM reference");
      double pulls = 0.0;
      const sc::SweepResult* const sweeps[] = {&report.preprocessing.sweep, &production.sweep};
      for (const sc::SweepResult* sweep : sweeps) {
        for (const auto& cell : sweep->combos) {
          check_jensen(out.checks, cell);
          pulls += static_cast<double>(cell.samples);
          f.early_stopped += cell.early_stopped ? 1.0 : 0.0;
        }
      }
      out.checks.expect(last_progress.final_frame && last_progress.completed == jobs,
                        name + ": final progress frame reports every job completed");

      std::vector<std::string> records;
      {
        std::ifstream jsonl(rig->jsonl_path);
        std::string line;
        while (std::getline(jsonl, line)) records.push_back(line);
      }
      check_exporter_deltas(out.checks, records, rig->final_snapshot);

      f.pulls += pulls;
      f.jobs += static_cast<double>(jobs);
      f.imd_frames_sent += static_cast<double>(report.interactive.imd.frames_sent);
      f.imd_frames_timed_out += static_cast<double>(report.interactive.imd.frames_timed_out);
      out.attempted += static_cast<std::uint64_t>(pulls) + jobs;
      out.failed += jobs - std::min(campaign.completed, jobs);
      rig.reset();
    }
    facts.push_back(f);
    return seconds;
  });

  const double wall = fastest_pass(pass_s);
  out.notes.push_back("pass_s: " + join(pass_s));
  auto per_pass = [&facts](double PassFacts::*field) {
    std::vector<double> v;
    for (const PassFacts& f : facts) v.push_back(f.*field);
    return median(v);
  };
  const double ops = per_pass(&PassFacts::pulls) + per_pass(&PassFacts::jobs);
  out.notes.push_back("passes: " + std::to_string(pass_s.size()) + ", pulls per pass " +
                      std::to_string(per_pass(&PassFacts::pulls)) + ", grid jobs per pass " +
                      std::to_string(per_pass(&PassFacts::jobs)));
  out.notes.push_back("md_steps_per_s: " + std::to_string(per_pass(&PassFacts::steps) / wall));
  if (spans == nullptr) {
    out.values = {{"wall_s", wall},
                  {"setup_s", setup_s},
                  {"ops_per_s", ops / wall},
                  {"peak_rss_mib", rss}};
    return out;
  }
  auto span_per_pass = [spans, &pass_s](const char* name) {
    double total = 0.0;
    for (const double d : spans->durations(name)) total += d;
    return total / static_cast<double>(pass_s.size());
  };
  out.values = {
      {"traced.wall_s", wall},
      {"md.steps_per_s", per_pass(&PassFacts::steps) / wall},
      {"md.replica_steps", per_pass(&PassFacts::steps)},
      {"md.force_evals", per_pass(&PassFacts::evals)},
      {"spice.static_s", span_per_pass("spice.static")},
      {"spice.interactive_s", span_per_pass("spice.interactive")},
      {"spice.preprocessing_s", span_per_pass("spice.preprocessing")},
      {"spice.production_sweep_s", span_per_pass("spice.production_sweep")},
      {"spice.production_grid_s", span_per_pass("spice.production_grid")},
      {"steering.imd_frames_sent", per_pass(&PassFacts::imd_frames_sent)},
      {"steering.imd_frames_timed_out", per_pass(&PassFacts::imd_frames_timed_out)},
      {"fe.early_stopped_cells", per_pass(&PassFacts::early_stopped)},
      {"spice.pulls", per_pass(&PassFacts::pulls)},
      {"obs.tracer_events", per_pass(&PassFacts::tracer_events)},
      {"obs.tracer_dropped", per_pass(&PassFacts::tracer_dropped)},
      {"obs.recorder_events", per_pass(&PassFacts::recorder_events)},
      {"obs.exporter_snapshots", per_pass(&PassFacts::exporter_snapshots)},
      {"obs.trace_save_s", per_pass(&PassFacts::save_s)},
  };
  return out;
}

}  // namespace e2e
