// offline: the paper's first-fit greedy coloring (gain engine, warm gain
// table, longest-first) of static n = 4096 random_square instances, with
// the square-root LP coloring (Section 5) timed in the traced run. It
// exercises core, lp and the gain-table build, and bypasses online,
// service, the exact accumulators and the far field.
//
// Offline colors a batch: every link waits for the whole call, so a
// link's latency is its call's time and events/s counts links colored per
// second. Calls run on one thread and are timed on its CPU clock, which
// leaves out time the thread sits preempted or stolen by the hypervisor
// (see online.cpp). Each instance is colored kCalls times; per instance
// the run takes the rate, the median call and the slowest call, and it
// reports the median instance of each. Ten calls hold no percentile
// tail, so event_p90_us is the slowest call, not a p90 of samples.
#include <algorithm>
#include <iostream>
#include <numeric>

#include "bench.h"
#include "core/greedy.h"
#include "core/sqrt_coloring.h"
#include "gen/generators.h"
#include "measure.h"
#include "sinr/gain_matrix.h"
#include "util/rng.h"

namespace perfbench {

using namespace oisched;

namespace {

constexpr std::size_t kLinks = 4096;
constexpr std::size_t kCalls = 10;  // greedy calls per instance, ~0.08 s each

enum class Algorithm { greedy, sqrt };

/// One coloring call; returns its schedule and the powers it ran under.
struct Coloring {
  Schedule schedule;
  std::vector<double> powers;
  SqrtColoringStats lp;
};

Coloring color(const Instance& instance, Algorithm algorithm,
               FeasibilityEngine engine = FeasibilityEngine::gain_matrix) {
  if (algorithm == Algorithm::greedy) {
    std::vector<double> powers = sqrt_powers(instance);
    Schedule schedule = greedy_coloring(instance, powers, params(), kVariant,
                                        RequestOrder::longest_first, engine);
    return {std::move(schedule), std::move(powers), {}};
  }
  SqrtColoringOptions options;  // LP on, fixed rounding seed
  SqrtColoringResult result = sqrt_coloring(instance, params(), kVariant, options);
  return {std::move(result.schedule), std::move(result.powers), result.stats};
}

}  // namespace

Report run_offline(const RunOptions& options) {
  Report report;
  std::vector<double> setup_s;
  std::vector<double> build_s;
  std::vector<double> median_call_us;
  std::vector<double> slowest_call_us;
  std::vector<double> colors;
  std::vector<double> rates;
  double resident_mb = 0.0;
  Stopwatch budget;
  double last_instance_s = 0.0;
  // Greedy takes ~0.1 s a call and the table build ~1.4 s, so a run
  // spends its time on instances, kCalls calls each: at least three
  // instances, more while the next one fits the budget.
  const std::size_t min_instances = options.trace ? 1 : 3;
  for (std::size_t k = 0;
       k < min_instances ||
       (!options.trace && budget.elapsed_seconds() + last_instance_s <= options.seconds);
       ++k) {
    Stopwatch instance_watch;
    Rng rng(instance_seed(options.seed, k));
    const Instance generated = random_square(kLinks, {}, rng);
    const std::vector<Request> requests(generated.requests().begin(),
                                        generated.requests().end());
    // Set-up: a fresh instance and its gain table (greedy and sqrt share
    // it: the bidirectional variant keys one table for both).
    std::unique_ptr<Instance> instance;
    time_setup(
        [&] {
          instance.reset();
          Stopwatch watch;
          auto fresh = std::make_unique<Instance>(generated.metric_ptr(), requests);
          Stopwatch table_watch;
          const auto table = fresh->gains(sqrt_powers(*fresh), params().alpha, kVariant);
          build_s.push_back(table_watch.elapsed_seconds());
          resident_mb = static_cast<double>(table->resident_doubles()) * 8.0 / (1 << 20);
          instance = std::move(fresh);
          return watch.elapsed_seconds();
        },
        1, setup_s);

    Coloring first;
    std::vector<double> times;
    for (std::size_t call = 0; call < kCalls; ++call) {
      const double cpu_begin = thread_cpu_seconds();
      Coloring run = color(*instance, Algorithm::greedy);
      times.push_back(thread_cpu_seconds() - cpu_begin);
      if (call == 0) {
        first = std::move(run);
      } else if (run.schedule.color_of != first.schedule.color_of) {
        report.fail("repeated colorings of one instance differ");
      }
    }
    report.attempted += times.size();
    report.expect(instance->cached_gain_tables() == 1,
                  "the coloring did not run on the warm gain table");
    // Untimed: the direct metric-recomputing checker.
    report.expect(validate_schedule(*instance, first.powers, first.schedule, params(),
                                    kVariant)
                      .valid,
                  "greedy schedule fails the direct checker");
    // Colors of the first min_instances only: how many more instances fit
    // the budget depends on speed, and colors must not.
    if (k < min_instances) colors.push_back(first.schedule.num_colors);
    median_call_us.push_back(median(times) * 1e6);
    slowest_call_us.push_back(*std::max_element(times.begin(), times.end()) * 1e6);
    rates.push_back(static_cast<double>(kLinks * times.size()) /
                    std::accumulate(times.begin(), times.end(), 0.0));

    if (options.trace) {
      // The member-only incremental engine (the ceiling a member-indexed
      // online class could reach) must reproduce the schedule; sqrt is
      // timed here, ungated: its colors range from about 40 to 100 across
      // instances of one distribution, too wide for a bound.
      Stopwatch incremental_watch;
      const Coloring incremental =
          color(*instance, Algorithm::greedy, FeasibilityEngine::incremental);
      report.add("core.greedy_incremental_s", incremental_watch.elapsed_seconds(), "s");
      report.expect(incremental.schedule.color_of == first.schedule.color_of,
                    "incremental engine disagrees with the gain engine");
      Stopwatch sqrt_watch;
      const Coloring sqrt = color(*instance, Algorithm::sqrt);
      report.add("lp.sqrt_color_s", sqrt_watch.elapsed_seconds(), "s");
      report.expect(validate_schedule(*instance, sqrt.powers, sqrt.schedule, params(),
                                      kVariant)
                        .valid,
                    "sqrt schedule fails the direct checker");
      report.attempted += 2;
      report.add("lp.sqrt_colors", sqrt.schedule.num_colors, "count");
      report.add("lp.solves", sqrt.lp.lp_solves, "count");
      report.add("lp.rounds", sqrt.lp.rounds, "count");
      report.add("lp.greedy_fallbacks", sqrt.lp.greedy_fallbacks, "count");
      report.add("core.greedy_gain_s", median(times), "s");
      report.add("sinr.gain_build_s", median(build_s), "s");
      report.add("sinr.gain_resident_mb", resident_mb, "MB");
      return report;
    }
    last_instance_s = instance_watch.elapsed_seconds();
  }

  // Figures of the median instance: a shared host can run in speed
  // states far apart for tens of seconds, and a median ignores a minority
  // of instances timed in the other state.
  EndToEnd e2e;
  e2e.setup_s = median(setup_s);
  e2e.peak_rss_mb = peak_rss_mb();
  e2e.events_per_s = median(rates);
  e2e.event_p50_us = median(median_call_us);
  e2e.event_p90_us = median(slowest_call_us);
  e2e.colors_final = std::accumulate(colors.begin(), colors.end(), 0.0) /
                     static_cast<double>(colors.size());
  add_end_to_end(e2e, report);
  std::cerr << "offline: " << rates.size() << " instances of n=" << kLinks << ", "
            << report.attempted << " greedy calls, colors of the first " << colors.size();
  for (const double c : colors) std::cerr << ' ' << c;
  std::cerr << ", links per CPU-second per instance";
  for (const double rate : rates) std::cerr << ' ' << rate;
  std::cerr << '\n';
  return report;
}

}  // namespace perfbench
