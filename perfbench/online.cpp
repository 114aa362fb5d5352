// churn and farfield: closed-loop replays of Poisson link churn through
// one OnlineScheduler, one caller, one apply() at a time.
//
// churn (n = 2048, dense tables, exact removal, ~40k events keeping about
// half the links active) is the bare admission path: accumulator updates
// dominate it, so filtered exactness and member-indexed classes show here.
// farfield (n = 32768, tableless `computed` storage, far field on with
// 1024 cells and near radius 3, 4000 events ending ~3.2k active) is the
// large, sparsely active regime and the only workload that runs
// spatial_index, farfield and computed storage.
//
// A run replays one trace on each of several instances (at least two on
// churn and three on farfield, more while the budget allows): one
// instance's geometry moves the figures less than it would alone. Each
// replay splits into timed units of consecutive events, and each figure
// is a quantile over the run's units (see `slow_rank`), which ignores the
// units timed while the host ran faster than usual.
//
// Each apply() is timed on the caller's thread CPU clock. The loop is
// single-threaded and never waits, so on an idle core that clock and the
// wall clock agree; on a shared host the CPU clock leaves out the time the
// thread sits preempted or stolen by the hypervisor (the kernel accounts
// steal time apart). It does not leave out contention for caches, memory
// bandwidth or clock speed with other guests: the same churn instance
// replayed at 8.8k and 13.7k calls per CPU-second in runs minutes apart,
// in bursts a few seconds long over a steady floor. Wall-clock figures go
// to stderr beside it.
#include <algorithm>
#include <iostream>
#include <numeric>

#include "bench.h"
#include "gen/churn.h"
#include "gen/generators.h"
#include "measure.h"
#include "online/online_scheduler.h"
#include "replay.h"
#include "util/rng.h"

namespace perfbench {

using namespace oisched;

namespace {

constexpr std::size_t kMinBeyond = 40;

struct OnlineConfig {
  std::size_t links = 0;
  std::size_t events = 0;
  GainBackend storage = GainBackend::dense;
  bool farfield = false;
  /// Traced-run twins replay this many leading events.
  std::size_t twin_prefix = 0;
  /// Instances a run replays at least (more while the budget allows).
  std::size_t min_instances = 2;
  /// Events per timed unit; `events` (a whole replay) by default.
  std::size_t unit_events = 0;
  /// Which unit the run reports: the one at this rank from the fastest
  /// (0.5, the median unit; 0.75, the slower quartile). events_per_s is
  /// the rate at quantile 1 - slow_rank of the unit rates, event_p50_us
  /// and event_p90_us the times at quantile slow_rank of the unit p50s
  /// and p90s.
  double slow_rank = 0.5;
};

OnlineSchedulerOptions scheduler_options(const OnlineConfig& config) {
  OnlineSchedulerOptions options;
  options.remove_policy = RemovePolicy::exact;
  options.storage = config.storage;
  if (config.farfield) {
    options.farfield = true;
    options.farfield_options.target_cells = 1024;
    options.farfield_options.near_radius = 3;
  }
  return options;
}

/// Twins on a prefix of `events`, timed untraced: far field vs exact-only
/// on farfield; exact vs compensated and rebuild on churn. Verdicts must
/// match the default path's bit for bit where the design promises it.
void time_twins(const OnlineConfig& config, const Instance& instance,
                std::span<const double> powers, std::span<const ChurnEvent> events,
                Report& report) {
  const OnlineSchedulerOptions base_options = scheduler_options(config);
  const std::span<const ChurnEvent> prefix =
      events.first(std::min(config.twin_prefix, events.size()));
  const auto twin = [&](const OnlineSchedulerOptions& twin_options, Schedule* final_schedule) {
    OnlineScheduler scheduler(instance, powers, params(), kVariant, twin_options);
    const Replay run = replay(scheduler, prefix);
    report.attempted += prefix.size();
    report.failed += run.failed;
    if (final_schedule != nullptr) *final_schedule = scheduler.snapshot();
    return run.wall_s;
  };
  Schedule base_prefix;
  const double base_prefix_s = twin(base_options, &base_prefix);
  if (config.farfield) {
    OnlineSchedulerOptions exact_only = base_options;
    exact_only.farfield = false;
    Schedule exact_prefix;
    report.add("sinr.farfield.twin_farfield_prefix_s", base_prefix_s, "s");
    report.add("sinr.farfield.twin_exact_prefix_s", twin(exact_only, &exact_prefix), "s");
    report.expect(exact_prefix.color_of == base_prefix.color_of,
                  "far-field and exact-only twins disagree");
  } else {
    OnlineSchedulerOptions compensated = base_options;
    compensated.remove_policy = RemovePolicy::compensated;
    OnlineSchedulerOptions rebuild = base_options;
    rebuild.remove_policy = RemovePolicy::rebuild;
    Schedule rebuild_prefix;
    report.add("online.twin_exact_prefix_s", base_prefix_s, "s");
    report.add("online.twin_compensated_prefix_s", twin(compensated, nullptr), "s");
    report.add("online.twin_rebuild_prefix_s", twin(rebuild, &rebuild_prefix), "s");
    report.expect(rebuild_prefix.color_of == base_prefix.color_of,
                  "exact and rebuild twins disagree");
  }
}

Report run_online(const OnlineConfig& config, const RunOptions& options) {
  Report report;
  const OnlineSchedulerOptions base_options = scheduler_options(config);
  std::vector<double> setup_s;
  std::vector<double> build_s;
  std::vector<double> pooled_us;  // thread CPU time per apply()
  std::vector<double> wall_us;
  std::vector<double> colors;
  std::vector<double> rates;  // per timed unit, like the next two
  std::vector<double> p50s;
  std::vector<double> p90s;
  std::size_t p90_beyond = 0;  // the same on every unit: one unit length
  const std::size_t unit_events = config.unit_events > 0 ? config.unit_events : config.events;
  std::size_t instances = 0;
  const long switches_before = involuntary_switches();
  Stopwatch budget;
  double last_instance_s = 0.0;
  for (std::size_t k = 0; k < config.min_instances ||
                          budget.elapsed_seconds() + last_instance_s <= options.seconds;
       ++k) {
    Stopwatch instance_watch;
    Rng rng(instance_seed(options.seed, k));
    const Instance generated = random_square(config.links, {}, rng);
    const std::vector<Request> requests(generated.requests().begin(),
                                        generated.requests().end());
    const ChurnTrace trace = make_churn_trace("poisson", config.links, config.events, rng);
    trace.validate();
    const std::vector<double> powers = sqrt_powers(generated);

    // Set-up: instance, gain tables (dense) or far-field context
    // (computed), and the scheduler itself.
    std::unique_ptr<Instance> instance;
    std::unique_ptr<OnlineScheduler> scheduler;
    time_setup(
        [&] {
          scheduler.reset();
          instance.reset();
          Stopwatch watch;
          auto fresh = std::make_unique<Instance>(generated.metric_ptr(), requests);
          Stopwatch build_watch;
          auto built = std::make_unique<OnlineScheduler>(*fresh, powers, params(), kVariant,
                                                         base_options);
          build_s.push_back(build_watch.elapsed_seconds());
          instance = std::move(fresh);
          scheduler = std::move(built);
          return watch.elapsed_seconds();
        },
        3, setup_s);

    if (options.trace) {
      report_online_layers(*instance, powers, base_options,
                           std::span<const std::vector<ChurnEvent>>(&trace.events, 1), report);
      time_twins(config, *instance, powers, trace.events, report);
      report.add("sinr.gain_build_s", median(build_s), "s");
      report.add("sinr.gain_resident_mb",
                 static_cast<double>(scheduler->gains().resident_doubles()) * 8.0 / (1 << 20),
                 "MB");
      report.add("os.involuntary_switches",
                 static_cast<double>(involuntary_switches() - switches_before), "count");
      return report;
    }

    const Replay run = replay(*scheduler, trace.events, nullptr, /*sample_cpu=*/true);
    report.attempted += trace.events.size();
    report.failed += run.failed;
    // Untimed: the final state re-validates bit for bit against the
    // direct engine.
    report.expect(scheduler->validate_against_direct(),
                  "final state fails validate_against_direct");
    pooled_us.insert(pooled_us.end(), run.cpu_us.begin(), run.cpu_us.end());
    wall_us.insert(wall_us.end(), run.event_us.begin(), run.event_us.end());
    ++instances;
    for (std::size_t first = 0; first + unit_events <= run.cpu_us.size();
         first += unit_events) {
      const std::span<const double> unit(run.cpu_us.data() + first, unit_events);
      double unit_s = 0.0;
      for (const double us : unit) unit_s += us * 1e-6;
      rates.push_back(static_cast<double>(unit_events) / unit_s);
      p50s.push_back(percentile(unit, 0.5).value);
      const Percentile p90 = tail(unit, 0.9, kMinBeyond);
      p90s.push_back(p90.value);
      p90_beyond = p90.beyond;
    }
    // Colors of the first min_instances only: how many more instances fit
    // the budget depends on speed, and colors must not.
    if (k < config.min_instances) colors.push_back(run.final_colors);
    std::cerr << options.workload << ": instance " << k << ": " << run.events_per_cpu_s()
              << " events/cpu-s (" << run.events_per_s() << " by wall clock), "
              << scheduler->active_count() << " active in "
              << scheduler->num_colors() << " colors\n";
    last_instance_s = instance_watch.elapsed_seconds();
  }

  const Percentile p99 = tail(pooled_us, 0.99, kMinBeyond);
  EndToEnd e2e;
  e2e.setup_s = median(setup_s);
  e2e.peak_rss_mb = peak_rss_mb();
  e2e.events_per_s = quantile(rates, 1.0 - config.slow_rank);
  e2e.event_p50_us = quantile(p50s, config.slow_rank);
  e2e.event_p90_us = quantile(p90s, config.slow_rank);
  e2e.colors_final = std::accumulate(colors.begin(), colors.end(), 0.0) /
                     static_cast<double>(colors.size());
  add_end_to_end(e2e, report);
  std::cerr << options.workload << ": " << instances << " instances, " << rates.size()
            << " units of " << unit_events << " events, " << p90_beyond
            << " beyond each unit's CPU p90; pooled CPU p99 "
            << p99.value << " us (" << p99.beyond << " beyond); pooled wall p50 "
            << percentile(wall_us, 0.5).value
            << " us, p90 " << percentile(wall_us, 0.9).value << " us; "
            << involuntary_switches() - switches_before << " involuntary switches\n";
  return report;
}

}  // namespace

Report run_churn(const RunOptions& options) {
  OnlineConfig config;
  config.links = 2048;
  config.events = 40000;
  config.storage = GainBackend::dense;
  config.twin_prefix = 10000;
  // Past its first few thousand events the trace holds about half the
  // links active, so its units are alike and the slower quartile of them
  // is the host's steady floor.
  config.unit_events = 2000;
  config.slow_rank = 0.75;
  return run_online(config, options);
}

Report run_farfield(const RunOptions& options) {
  OnlineConfig config;
  config.links = 32768;
  config.events = 4000;
  config.storage = GainBackend::computed;
  config.farfield = true;
  config.twin_prefix = 400;
  // One instance's rate moves by up to 20% with its geometry; three keep
  // the run's median steadier than the host's own noise. The cost of an
  // event grows along the trace, so a unit is a whole replay.
  config.min_instances = 3;
  return run_online(config, options);
}

}  // namespace perfbench
