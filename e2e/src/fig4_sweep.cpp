// fig4_sweep — the paper's Fig. 4 (κ, v) SMD-JE sweep at bench/fig4_pmf's
// configuration (3 κ × 4 v, equal compute per cell, 21-point λ grid, 64
// bootstrap resamples, umbrella/WHAM reference, seed 2005) with 2 rather
// than 6 replicas at the slowest pull.
//
// Untraced pass: core::run_parameter_sweep, the program's own entry point.
// Traced pass: the same sweep composed from the public calls it makes
// (system build, run_combo per cell, compute_reference_pmf), each timed.
// After the passes, one cell is decomposed further (ensemble pull wave,
// JE, bootstrap) and the umbrella/WHAM reference is re-run for its
// iteration count; both feed checks as well as per-layer metrics.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>

#include "bench.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "fe/convergence.hpp"
#include "fe/error_analysis.hpp"
#include "fe/pmf.hpp"
#include "fe/wham.hpp"
#include "md/ensemble_engine.hpp"
#include "md/observables.hpp"
#include "obs/metrics.hpp"
#include "spice/campaign.hpp"
#include "testkit/systems.hpp"

namespace e2e {

namespace sc = spice::core;
namespace fe = spice::fe;

namespace {

// The decomposed cell: the paper's optimum κ with the fastest pull, so its
// replicas run as one ensemble wave and a standalone pull is cheap.
constexpr double kCellKappa = 100.0;
constexpr double kCellVelocity = 100.0;
constexpr std::uint32_t kHeadBead = 0;
// bench/fig4_pmf runs 6 replicas at the slowest pull (270 pulls, 21-36 s a
// pass on a 4-core VM); 2, the SweepConfig default, keeps the cell grid,
// the equal-compute rule and the reference, and lets three whole passes
// fit in one run.
constexpr std::size_t kSamplesAtSlowest = 2;
constexpr std::size_t kMinPasses = 3;
const spice::Vec3 kPullDirection{0.0, 0.0, -1.0};

sc::SweepConfig fig4_config(std::uint64_t seed) {
  sc::SweepConfig config;
  config.samples_at_slowest = kSamplesAtSlowest;
  config.grid_points = 21;
  config.bootstrap_resamples = 64;
  config.seed = seed;
  return config;
}

spice::pore::TranslocationSystem build_master(const sc::SweepConfig& config) {
  spice::pore::TranslocationConfig system = config.system;
  system.md.seed = config.seed;
  return spice::pore::build_translocation_system(system);
}

/// The sweep composed from its public parts, each call under a span.
sc::SweepResult traced_sweep(const sc::SweepConfig& config, SpanLog* spans) {
  Scope sweep_scope(spans, "spice.sweep");
  sc::SweepResult result;
  result.temperature_k = config.system.md.temperature;
  const spice::pore::TranslocationSystem master = [&] {
    Scope scope(spans, "pore.build");
    return build_master(config);
  }();
  for (const double kappa : config.kappas_pn) {
    for (const double velocity : config.velocities_ns) {
      Scope scope(spans, "spice.cell");
      result.combos.push_back(sc::run_combo(master, config, kappa, velocity));
    }
  }
  {
    Scope scope(spans, "spice.reference");
    result.reference = sc::compute_reference_pmf(master, config);
    result.has_reference = true;
  }
  for (const auto& combo : result.combos) {
    fe::ParameterScore score;
    score.kappa_pn = combo.kappa_pn;
    score.velocity_ns = combo.velocity_ns;
    score.samples = combo.samples;
    score.sigma_stat = combo.mean_sigma_stat;
    score.sigma_sys = fe::systematic_error(combo.pmf, result.reference);
    result.scores.push_back(score);
  }
  return result;
}

bool same_pmf(const fe::PmfEstimate& a, const fe::PmfEstimate& b) {
  return a.lambda == b.lambda && a.phi == b.phi;
}

bool same_pull(const spice::smd::PullResult& a, const spice::smd::PullResult& b) {
  if (a.steps != b.steps || a.samples.size() != b.samples.size()) return false;
  // Bitwise: every recorded field of every sample.
  return std::memcmp(a.samples.data(), b.samples.data(),
                     a.samples.size() * sizeof(spice::smd::PullSample)) == 0 &&
         std::memcmp(&a.pulled_distance, &b.pulled_distance, sizeof(double)) == 0;
}

/// JE estimate and its jackknife standard error, computed here apart from
/// the fe layer: ΔF = −kT ln⟨e^{−W/kT}⟩.
std::pair<double, double> je_with_jackknife(const std::vector<double>& works, double kt) {
  auto je = [kt](const std::vector<double>& w, std::size_t skip) {
    double shift = 1e300;
    for (std::size_t i = 0; i < w.size(); ++i) {
      if (i != skip) shift = std::min(shift, w[i]);
    }
    double sum = 0.0;
    std::size_t n = 0;
    for (std::size_t i = 0; i < w.size(); ++i) {
      if (i == skip) continue;
      sum += std::exp(-(w[i] - shift) / kt);
      ++n;
    }
    return shift - kt * std::log(sum / static_cast<double>(n));
  };
  const std::size_t n = works.size();
  const double full = je(works, n);
  std::vector<double> loo(n);
  double mean = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    loo[i] = je(works, i);
    mean += loo[i] / static_cast<double>(n);
  }
  double var = 0.0;
  for (const double x : loo) var += (x - mean) * (x - mean);
  return {full, std::sqrt(var * static_cast<double>(n - 1) / static_cast<double>(n))};
}

}  // namespace

Outcome run_fig4_sweep(const Options& options, SpanLog* spans) {
  Outcome out;
  const sc::SweepConfig config = fig4_config(options.seed);

  // Set-up: the equilibrated master system the checks clone.
  const spice::pore::TranslocationSystem master = [&] {
    Scope scope(spans, "pore.build");
    return build_master(config);
  }();
  const double setup_s = since_process_start_s();
  out.notes.push_back("setup_s: " + std::to_string(setup_s));

  if (spans != nullptr) spice::obs::set_metrics_enabled(true);
  spice::obs::Counter& steps_counter = spice::obs::metrics().counter("md.engine.steps");
  spice::obs::Counter& evals_counter = spice::obs::metrics().counter("md.engine.force_evals");

  std::vector<sc::SweepResult> results;
  std::vector<double> pass_steps;
  std::vector<double> pass_evals;
  const std::vector<double> pass_s = run_passes(options, kMinPasses, [&](std::size_t) {
    const std::uint64_t steps0 = steps_counter.value();
    const std::uint64_t evals0 = evals_counter.value();
    const Clock::time_point t0 = Clock::now();
    results.push_back(spans != nullptr ? traced_sweep(config, spans)
                                       : sc::run_parameter_sweep(config, true));
    const double seconds = seconds_since(t0);
    pass_steps.push_back(static_cast<double>(steps_counter.value() - steps0));
    pass_evals.push_back(static_cast<double>(evals_counter.value() - evals0));
    return seconds;
  });
  const double rss = peak_rss_mib();

  // --- checks on every pass ------------------------------------------------
  std::uint64_t pulls_per_pass = 0;
  for (std::size_t k = 0; k < config.kappas_pn.size(); ++k) {
    for (const double velocity : config.velocities_ns) pulls_per_pass += config.samples_for(velocity);
  }
  std::uint64_t steps_per_pass = 0;
  for (const auto& cell : results.front().combos) steps_per_pass += cell.md_steps;
  for (std::size_t p = 0; p < results.size(); ++p) {
    const sc::SweepResult& sweep = results[p];
    const std::string pass = "pass " + std::to_string(p);
    out.checks.expect(sweep.combos.size() == config.kappas_pn.size() *
                                                 config.velocities_ns.size(),
                      pass + ": " + std::to_string(sweep.combos.size()) + " cells");
    std::uint64_t pulls = 0;
    for (const auto& cell : sweep.combos) {
      pulls += cell.samples;
      check_pmf(out.checks, cell.pmf, pass + " cell PMF");
      check_jensen(out.checks, cell);
    }
    check_cell_steps(out.checks, sweep, config);
    out.checks.expect(sweep.has_reference, pass + ": reference computed");
    check_pmf(out.checks, sweep.reference, pass + " WHAM reference");
    out.attempted += pulls_per_pass;
    out.failed += pulls_per_pass - std::min(pulls, pulls_per_pass);
    if (p > 0) {
      bool same = sweep.combos.size() == results.front().combos.size() &&
                  same_pmf(sweep.reference, results.front().reference);
      for (std::size_t c = 0; same && c < sweep.combos.size(); ++c) {
        same = same_pmf(sweep.combos[c].pmf, results.front().combos[c].pmf);
      }
      out.checks.expect(same, pass + ": PMFs differ from pass 0 at the same seed");
    }
  }

  // --- decomposed cell: ensemble wave vs standalone pulls -------------------
  const double temperature = config.system.md.temperature;
  const std::size_t replicas = config.samples_for(kCellVelocity);
  std::vector<std::uint64_t> seeds(replicas);
  spice::SplitMix64 seed_stream(options.seed ^ 0x63656c6cULL /*"cell"*/);
  for (auto& s : seeds) s = seed_stream.next();

  std::vector<spice::smd::PullResult> wave;
  std::size_t neighbor_rebuilds = 0;
  {
    Scope cell_scope(spans, "spice.decomposed_cell");
    {
      Scope scope(spans, "smd.pull_wave");
      spice::md::EnsembleConfig ensemble_config;
      ensemble_config.threads = master.engine.config().threads;
      spice::md::EnsembleEngine ensemble(master.engine, seeds, ensemble_config);
      spice::smd::SmdParams params;
      params.spring_pn_per_angstrom = kCellKappa;
      params.velocity_angstrom_per_ns = kCellVelocity;
      params.direction = kPullDirection;
      params.smd_atoms = {kHeadBead};
      std::vector<std::shared_ptr<spice::smd::ConstantVelocityPull>> pulls;
      for (std::size_t r = 0; r < replicas; ++r) {
        auto pull = std::make_shared<spice::smd::ConstantVelocityPull>(params);
        pull->attach(ensemble.replica(r));
        ensemble.add_contribution(r, pull);
        pulls.push_back(std::move(pull));
      }
      wave = spice::smd::run_ensemble_pull(ensemble, pulls, config.pull_distance,
                                           config.sample_every);
      const std::size_t master_rebuilds = master.engine.neighbor_list().rebuild_count();
      for (std::size_t r = 0; r < replicas; ++r) {
        neighbor_rebuilds += ensemble.replica(r).neighbor_list().rebuild_count() -
                             master_rebuilds;
      }
    }
    fe::WorkEnsemble works;
    fe::PmfEstimate pmf;
    {
      Scope scope(spans, "fe.je");
      const std::vector<double> endpoint =
          fe::endpoint_works(wave, config.pull_distance, config.work_source);
      out.checks.expect(endpoint.size() == replicas, "decomposed cell: one work per replica");
      works = fe::grid_work_ensemble(wave, config.pull_distance, config.grid_points,
                                     config.work_source);
      pmf = fe::estimate_pmf(works, temperature, fe::Estimator::Exponential);
    }
    {
      Scope scope(spans, "fe.bootstrap");
      const std::vector<double> sigma = fe::bootstrap_stat_error(
          works, temperature, fe::Estimator::Exponential, config.bootstrap_resamples,
          config.seed);
      bool finite = sigma.size() == pmf.phi.size();
      for (const double s : sigma) finite = finite && std::isfinite(s) && s >= 0.0;
      out.checks.expect(finite, "decomposed cell: bootstrap errors finite and >= 0");
    }
    check_pmf(out.checks, pmf, "decomposed cell PMF");
  }
  const std::uint64_t pull_steps =
      expected_pull_steps(config.pull_distance, kCellVelocity, config.system.md.dt);
  for (const std::size_t r : {std::size_t{0}, replicas - 1}) {
    const spice::smd::PullResult single =
        sc::run_single_pull(master, config, kCellKappa, kCellVelocity, seeds[r]);
    out.checks.expect(same_pull(wave[r], single),
                      "decomposed cell: ensemble replica " + std::to_string(r) +
                          " differs bitwise from run_single_pull at the same seed");
    out.checks.expect(single.steps == pull_steps,
                      "standalone pull: " + std::to_string(single.steps) + " steps, expected " +
                          std::to_string(pull_steps));
  }

  // --- umbrella/WHAM at the reference's settings ----------------------------
  fe::WhamResult wham;
  {
    Scope scope(spans, "fe.umbrella");
    spice::md::Engine engine = master.engine.clone(config.seed ^ 0x7265666eULL);
    const spice::Vec3 com = spice::md::center_of_mass(
        engine.positions(), engine.topology(), std::vector<std::uint32_t>{kHeadBead});
    fe::UmbrellaConfig umbrella;
    umbrella.xi_min = 0.0;
    umbrella.xi_max = config.pull_distance;
    umbrella.windows = std::max<std::size_t>(11, config.grid_points);
    umbrella.kappa = 10.0;
    umbrella.equilibration_steps = 1500;
    umbrella.sampling_steps = 6000;
    const std::vector<std::uint32_t> atoms{kHeadBead};
    wham = fe::run_umbrella_sampling(engine, atoms, kPullDirection, com, umbrella);
    fe::shift_pmf(wham.pmf, 0.0);
  }
  out.checks.expect(wham.converged, "WHAM did not converge (" +
                                        std::to_string(wham.iterations) + " iterations)");
  check_pmf(out.checks, wham.pmf, "umbrella/WHAM PMF");
  // Ties the converged check to the reference the sweep itself produced.
  out.checks.expect(same_pmf(wham.pmf, results.front().reference),
                    "umbrella re-run differs from the sweep's reference PMF");

  // --- analytic harmonic pull: JE vs exact ½·k_eff·λ² -----------------------
  {
    Scope scope(spans, "testkit.harmonic_pull");
    // 64 pulls keep the jackknife error honest; over 400 seeds the largest
    // deviation seen was 3.7 SE, so a 6 SE gate fails only on a real bias.
    constexpr std::size_t kPulls = 64;
    constexpr double kMaxStandardErrors = 6.0;
    const spice::testkit::HarmonicPullSpec spec;
    std::vector<double> works;
    spice::SplitMix64 stream(options.seed ^ 0x6861726dULL /*"harm"*/);
    for (std::size_t i = 0; i < kPulls; ++i) {
      spice::testkit::HarmonicPull system =
          spice::testkit::make_harmonic_pull({.seed = stream.next()}, spec);
      works.push_back(spice::testkit::run_harmonic_pull_work(system));
    }
    const auto [delta_f, se] = je_with_jackknife(works, spice::units::kT(spec.temperature));
    const double exact = spice::testkit::harmonic_pull_delta_f(spec);
    char line[200];
    std::snprintf(line, sizeof(line),
                  "harmonic pull: JE %.4f +- %.4f kcal/mol vs exact %.4f (%.2f SE, gate %.0f)",
                  delta_f, se, exact, std::abs(delta_f - exact) / se, kMaxStandardErrors);
    out.notes.push_back(line);
    out.checks.expect(std::abs(delta_f - exact) <= kMaxStandardErrors * se, line);
  }

  // --- metrics -------------------------------------------------------------
  const double wall = fastest_pass(pass_s);
  out.notes.push_back("pass_s: " + join(pass_s));
  out.notes.push_back("passes: " + std::to_string(pass_s.size()) + ", pulls per pass " +
                      std::to_string(pulls_per_pass) + ", MD steps per pass " +
                      std::to_string(steps_per_pass));
  out.notes.push_back("md_steps_per_s: " + std::to_string(steps_per_pass / wall));
  if (spans == nullptr) {
    out.values = {{"wall_s", wall},
                  {"setup_s", setup_s},
                  {"ops_per_s", static_cast<double>(pulls_per_pass) / wall},
                  {"peak_rss_mib", rss}};
    return out;
  }
  std::vector<double> cell_max;
  const std::vector<double> cells = spans->durations("spice.cell");
  const std::size_t per_pass = config.kappas_pn.size() * config.velocities_ns.size();
  for (std::size_t p = 0; p + per_pass <= cells.size(); p += per_pass) {
    cell_max.push_back(*std::max_element(cells.begin() + p, cells.begin() + p + per_pass));
  }
  const double wave_s = spans->durations("smd.pull_wave").front();
  out.values = {
      {"traced.wall_s", wall},
      {"md.steps_per_s", steps_per_pass / wall},
      {"pore.build_s", median(spans->durations("pore.build"))},
      {"spice.cell_s.median", median(cells)},
      {"spice.cell_s.max", median(cell_max)},
      {"spice.reference_s", median(spans->durations("spice.reference"))},
      {"smd.pull_wave_s", wave_s},
      {"md.replica_steps", median(pass_steps)},
      {"md.force_evals", median(pass_evals)},
      {"md.neighbor_rebuilds", static_cast<double>(neighbor_rebuilds)},
      {"md.ns_per_replica_step", wave_s * 1e9 / static_cast<double>(replicas * pull_steps)},
      {"fe.je_s", spans->durations("fe.je").front()},
      {"fe.bootstrap_s", spans->durations("fe.bootstrap").front()},
      {"fe.umbrella_s", spans->durations("fe.umbrella").front()},
      {"fe.wham_iterations", static_cast<double>(wham.iterations)},
  };
  return out;
}

}  // namespace e2e
