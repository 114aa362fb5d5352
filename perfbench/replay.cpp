#include "replay.h"

#include <algorithm>
#include <cmath>
#include <iostream>

#include "measure.h"

namespace perfbench {

using namespace oisched;

Replay replay(OnlineScheduler& scheduler, std::span<const ChurnEvent> events,
              obs::TraceTrack* track, bool sample_cpu) {
  Replay out;
  out.event_us.reserve(events.size());
  if (sample_cpu) out.cpu_us.reserve(events.size());
  const std::size_t final_from = events.size() - events.size() / 10;
  double colors_sum = 0.0;
  Stopwatch loop;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const ChurnEvent& event = events[i];
    const double cpu_begin = sample_cpu ? thread_cpu_seconds() : 0.0;
    const Stopwatch::TimePoint begin = Stopwatch::now();
    try {
      scheduler.apply(event);
    } catch (const std::exception& e) {
      ++out.failed;
      std::cerr << "perfbench: apply failed: " << e.what() << '\n';
    }
    const Stopwatch::TimePoint end = Stopwatch::now();
    if (sample_cpu) {
      const double cpu_s = thread_cpu_seconds() - cpu_begin;
      out.cpu_s += cpu_s;
      out.cpu_us.push_back(cpu_s * 1e6);
    }
    if (track != nullptr) track->record("apply", begin, end);
    out.event_us.push_back(Stopwatch::seconds_between(begin, end) * 1e6);
    if (event.kind == ChurnEvent::Kind::arrival) {
      out.probes += scheduler.color_of(event.link) + 1;
      ++out.arrivals;
    }
    if (i >= final_from) colors_sum += scheduler.num_colors();
  }
  out.wall_s = loop.elapsed_seconds();
  out.final_colors =
      colors_sum / static_cast<double>(std::max<std::size_t>(events.size() - final_from, 1));
  return out;
}

void report_online_layers(const Instance& instance, std::span<const double> powers,
                          const OnlineSchedulerOptions& options,
                          std::span<const std::vector<ChurnEvent>> streams, Report& report) {
  constexpr std::size_t kMinBeyond = 40;
  obs::TraceRecorder recorder;
  double plain_s = 0.0;
  double traced_s = 0.0;
  double plain_apply_us = 0.0;   // untraced apply() calls, mean of two passes
  double probes = 0.0;
  std::size_t arrivals = 0;
  std::vector<double> kind_us[3];  // arrival, departure, link_update
  std::vector<double> plain_us;
  std::vector<double> traced_us;
  std::vector<double> cpu_us;
  OnlineStats stats;
  for (std::size_t s = 0; s < streams.size(); ++s) {
    const std::vector<ChurnEvent>& events = streams[s];
    OnlineScheduler plain_scheduler(instance, powers, params(), kVariant, options);
    const Replay plain = replay(plain_scheduler, events);
    obs::TraceTrack& track = recorder.create_track("stream" + std::to_string(s));
    OnlineSchedulerOptions traced_options = options;
    traced_options.telemetry.trace = &track;
    OnlineScheduler traced_scheduler(instance, powers, params(), kVariant, traced_options);
    const Replay traced = replay(traced_scheduler, events, &track, /*sample_cpu=*/true);
    // A second untraced pass after the traced one, so slow drift of the
    // machine cancels out of the overhead estimate.
    OnlineScheduler again_scheduler(instance, powers, params(), kVariant, options);
    const Replay again = replay(again_scheduler, events);

    report.attempted += 3 * events.size();
    report.failed += plain.failed + traced.failed + again.failed;
    report.expect(plain_scheduler.validate_against_direct() &&
                      traced_scheduler.validate_against_direct(),
                  "layer replay fails validate_against_direct");
    report.expect(plain_scheduler.snapshot().color_of == traced_scheduler.snapshot().color_of,
                  "traced and untraced replays disagree");
    plain_s += 0.5 * (plain.wall_s + again.wall_s);
    traced_s += traced.wall_s;
    probes += plain.probes;
    arrivals += plain.arrivals;
    for (std::size_t i = 0; i < events.size(); ++i) {
      switch (events[i].kind) {
        case ChurnEvent::Kind::arrival:
          kind_us[0].push_back(plain.event_us[i]);
          break;
        case ChurnEvent::Kind::departure:
          kind_us[1].push_back(plain.event_us[i]);
          break;
        case ChurnEvent::Kind::link_update:
          kind_us[2].push_back(plain.event_us[i]);
          break;
        case ChurnEvent::Kind::link_arrival:
          break;
      }
      plain_apply_us += 0.5 * (plain.event_us[i] + again.event_us[i]);
    }
    plain_us.insert(plain_us.end(), plain.event_us.begin(), plain.event_us.end());
    traced_us.insert(traced_us.end(), traced.event_us.begin(), traced.event_us.end());
    cpu_us.insert(cpu_us.end(), traced.cpu_us.begin(), traced.cpu_us.end());
    const OnlineStats& t = traced_scheduler.stats();
    stats.migrations += t.migrations;
    stats.compaction_skips += t.compaction_skips;
    stats.update_migrations += t.update_migrations;
    stats.bound_hits += t.bound_hits;
    stats.exact_fallbacks += t.exact_fallbacks;
  }

  const auto totals = self_times(parse_spans(recorder.to_json()));
  const auto self_ms = [&](const char* name) {
    const auto it = totals.find(name);
    return it == totals.end() ? 0.0 : it->second.self_us / 1e3;
  };
  double self_sum_us = 0.0;
  std::size_t stray_roots = 0;
  for (const auto& [name, t] : totals) {
    self_sum_us += t.self_us;
    if (name != "apply") stray_roots += t.roots;
  }
  report.expect(stray_roots == 0, "program spans outside the benchmark's apply spans");
  // With every span nested, self times add up to the traced apply() time.
  // Against the untraced calls they should exceed it by the overhead the
  // loop timings measure: self / untraced = traced_s / plain_s. The two
  // differ only by the loop's time outside apply(): timestamps, color_of,
  // and in the traced pass the thread CPU clock, about 1% of a churn event.
  const double overhead = 1.0 - plain_s / traced_s;
  const double self_frac = self_sum_us / plain_apply_us;
  constexpr double kSelfTolerance = 0.03;
  if (std::abs(self_frac * (1.0 - overhead) - 1.0) > kSelfTolerance) {
    report.fail("span self times are " + std::to_string(self_frac) +
                " of the untraced apply() time, against 1 / (1 - " +
                std::to_string(overhead) + ") from the loop timings");
  }
  report.add("sinr.accumulator_update_ms", self_ms("accumulator_update"), "ms");
  report.add("sinr.feasibility_scan_ms", self_ms("feasibility_scan"), "ms");
  report.add("online.compaction_ms", self_ms("compaction"), "ms");
  report.add("online.apply_self_ms", self_ms("apply"), "ms");
  report.add("obs.span_self_total_frac", self_frac, "ratio");
  report.add("obs.trace_overhead", overhead, "ratio");
  const std::size_t tests = stats.bound_hits + stats.exact_fallbacks;
  report.add("sinr.farfield.bound_hits", static_cast<double>(stats.bound_hits), "count");
  report.add("sinr.farfield.exact_fallbacks", static_cast<double>(stats.exact_fallbacks),
             "count");
  report.add("sinr.farfield.fallback_frac",
             tests > 0 ? static_cast<double>(stats.exact_fallbacks) / tests : 0.0, "ratio");
  report.add("online.migrations", static_cast<double>(stats.migrations), "count");
  report.add("online.compaction_skips", static_cast<double>(stats.compaction_skips), "count");
  report.add("online.update_migrations", static_cast<double>(stats.update_migrations),
             "count");
  const char* kinds[3] = {"online.arrival", "online.departure", "online.update"};
  for (int k = 0; k < 3; ++k) {
    report.add(std::string(kinds[k]) + "_p50_us", percentile(kind_us[k], 0.5).value, "us");
    report.add(std::string(kinds[k]) + "_p99_us", percentile(kind_us[k], 0.99).value, "us");
  }
  report.add("online.probes_per_arrival",
             probes / static_cast<double>(std::max<std::size_t>(arrivals, 1)), "ratio");
  report.add("online.event_p99_us", tail(plain_us, 0.99, kMinBeyond).value, "us");
  report.add("online.event_wall_p99_us", tail(traced_us, 0.99, kMinBeyond).value, "us");
  report.add("online.event_cpu_p99_us", tail(cpu_us, 0.99, kMinBeyond).value, "us");
}

}  // namespace perfbench
