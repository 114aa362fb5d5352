// service-mobility: the sharded SchedulerService (2 shards, mobility on,
// dense private tables, n = 1024) under an open loop that mixes Poisson
// admit/release with bounded-length link moves. Moves rewrite gain rows
// while admissions and releases read them. The only workload with the
// ingest queue and the in-place update path.
//
// One run: warm up to steady state (saturated, untimed), measure the
// saturated drain rate, then walk a fixed geometric rate ladder with the
// generator submitting each event at its due time. Latency is measured
// from the due time, so generator lag and backlog both count.
#include <algorithm>
#include <cmath>
#include <iostream>
#include <numeric>
#include <thread>

#include "bench.h"
#include "core/power_assignment.h"
#include "measure.h"
#include "mobility.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "online/online_scheduler.h"
#include "replay.h"
#include "service/scheduler_service.h"

namespace perfbench {

using namespace oisched;

namespace {

constexpr std::size_t kLinks = 1024;
constexpr std::size_t kShards = 2;
// Warm-up: the trace starts with no link active and holds a link for 8
// trace time units at ~600 events per unit, so 10000 events (~2 holding
// times) bring it to ~85% of its steady active count, and the saturated
// bursts after it to ~97%.
constexpr std::size_t kWarmupEvents = 10000;
// Saturated bursts, each drained: the drain rate is their median.
constexpr std::size_t kSaturatedEvents = 2500;
constexpr std::size_t kSaturatedReps = 8;
constexpr std::size_t kLowestRungEvents = 8000;
// Every rung's p99 keeps at least kMinBeyond samples beyond it.
constexpr std::size_t kRungEvents = 4000;
constexpr double kLatencyLimit_s = 0.005;
constexpr std::size_t kMinBeyond = 40;
// Offered rates, events/s, a factor sqrt(2) apart: the lowest rung is
// light load, the top is well past what two shards drain.
constexpr double kRungs[] = {1000, 1414, 2000, 2828, 4000, 5657, 8000, 11314, 16000};

SchedulerServiceOptions service_options(obs::MetricsRegistry* registry,
                                        obs::TraceRecorder* trace) {
  SchedulerServiceOptions options;
  options.num_shards = kShards;
  options.scheduler.remove_policy = RemovePolicy::exact;
  options.scheduler.storage = GainBackend::dense;
  options.scheduler.mobility = true;
  options.scheduler.fresh_power = std::make_shared<SqrtPower>();
  options.registry = registry;
  options.trace = trace;
  return options;
}

/// Per-event latency histogram (all shards merged) from a registry scrape.
obs::LatencyHistogram histogram(obs::MetricsRegistry& registry, const char* name) {
  return registry.scrape().histogram_total(name);
}

/// Quantile of the observations made between two scrapes of one histogram.
double window_quantile(const obs::LatencyHistogram& before,
                       const obs::LatencyHistogram& after, double q,
                       std::uint64_t* count = nullptr) {
  std::vector<std::uint64_t> counts(obs::HistogramLayout::kBuckets);
  std::vector<double> edges(obs::HistogramLayout::kBuckets + 1);
  std::uint64_t total = 0;
  for (std::size_t b = 0; b < counts.size(); ++b) {
    counts[b] = after.buckets()[b] - before.buckets()[b];
    total += counts[b];
    edges[b] = obs::HistogramLayout::lower(b);
  }
  edges.back() = obs::HistogramLayout::upper(counts.size() - 1);
  if (count != nullptr) *count = total;
  return bucket_quantile(counts, edges, q);
}

/// window_quantile() held to the rule of tail(): at least `min_beyond`
/// observations of the window lie beyond the quantile's rank.
double window_tail(const obs::LatencyHistogram& before, const obs::LatencyHistogram& after,
                   double q, std::size_t min_beyond) {
  std::uint64_t samples = 0;
  const double value = window_quantile(before, after, q, &samples);
  const auto beyond = samples - static_cast<std::uint64_t>(std::ceil(q * samples - 1e-9));
  if (beyond < min_beyond) {
    throw std::runtime_error("latency window of " + std::to_string(samples) +
                             " events has only " + std::to_string(beyond) + " beyond its " +
                             std::to_string(q) + " quantile");
  }
  return value;
}

struct ServiceRun {
  std::unique_ptr<obs::MetricsRegistry> registry;
  std::unique_ptr<SchedulerService> service;
};

}  // namespace

Report run_service(const RunOptions& options) {
  Report report;
  const std::size_t trace_events = kWarmupEvents + kSaturatedReps * kSaturatedEvents +
                                   kLowestRungEvents + (std::size(kRungs) - 1) * kRungEvents;
  const MobilityWorkload workload = bounded_mobility(kLinks, trace_events, options.seed);
  if (const std::string problem = check_mobility(workload); !problem.empty()) {
    report.fail("mobility trace: " + problem);
  }
  const Instance& instance = *workload.instance;
  const std::vector<ChurnEvent>& events = workload.trace.events;
  const std::vector<double> powers = sqrt_powers(instance);
  std::cerr << "service-mobility: " << events.size() << " events (" << workload.moves
            << " moves), mean length drift " << workload.mean_length_drift << '\n';

  std::unique_ptr<obs::TraceRecorder> recorder;
  if (options.trace) recorder = std::make_unique<obs::TraceRecorder>();
  ServiceRun run;
  const long switches_before = involuntary_switches();
  std::vector<double> setup_s;
  time_setup(
      [&] {
        run.service.reset();
        run.registry.reset();
        Stopwatch watch;
        run.registry = std::make_unique<obs::MetricsRegistry>();
        run.service = std::make_unique<SchedulerService>(
            instance, powers, params(), kVariant,
            service_options(run.registry.get(), recorder.get()));
        return watch.elapsed_seconds();
      },
      3, setup_s);
  SchedulerService& service = *run.service;
  obs::MetricsRegistry& registry = *run.registry;
  // A traced set-up leaves one idle track per shard per discarded build;
  // they hold no spans, so self times are unaffected.

  std::size_t cursor = 0;
  std::size_t submit_failures = 0;
  const auto submit = [&](Stopwatch::TimePoint stamp) {
    const Expected<void> sent = service.submit(events[cursor], stamp);
    if (!sent.ok()) {
      ++submit_failures;
      std::cerr << "perfbench: submit failed: " << sent.error() << '\n';
    }
    ++cursor;
  };
  const auto saturate = [&](std::size_t count) {
    Stopwatch watch;
    const std::size_t first = cursor;
    while (cursor < first + count && cursor < events.size()) submit(Stopwatch::now());
    service.drain();
    return static_cast<double>(cursor - first) / watch.elapsed_seconds();
  };

  // Colors in use, sampled after each saturated burst and the lowest
  // rung: fixed trace positions that every run reaches, so a faster or
  // slower service samples the same states. One final count would hinge
  // on where the trace happens to stop.
  std::vector<double> colors;
  saturate(kWarmupEvents);
  std::vector<double> saturated;
  for (std::size_t r = 0; r < kSaturatedReps; ++r) {
    saturated.push_back(saturate(kSaturatedEvents));
    colors.push_back(service.num_colors());
  }

  // Trace time maps to wall time at each rung's rate: the trace's mean
  // event rate (events per trace time unit) scaled to `rate`.
  const double trace_rate =
      static_cast<double>(events.size()) / (events.back().time - events.front().time);
  std::vector<double> lag_us;
  obs::LatencyHistogram lowest_before;
  obs::LatencyHistogram lowest_after;
  obs::LatencyHistogram lowest_work_before;
  obs::LatencyHistogram lowest_work_after;
  double lowest_begin_us = 0.0;
  double lowest_end_us = 0.0;
  const auto probe = [&](double rate) {
    const std::size_t count = rate == kRungs[0] ? kLowestRungEvents : kRungEvents;
    const obs::LatencyHistogram before =
        histogram(registry, "oisched_service_latency_seconds");
    const obs::LatencyHistogram work_before =
        histogram(registry, "oisched_event_latency_seconds");
    const double first_time = events[cursor].time;
    const Stopwatch::TimePoint start = Stopwatch::now() + std::chrono::milliseconds(1);
    for (std::size_t i = 0; i < count && cursor < events.size(); ++i) {
      const auto due = start + std::chrono::duration_cast<Stopwatch::Clock::duration>(
                                   std::chrono::duration<double>(
                                       (events[cursor].time - first_time) * trace_rate / rate));
      // Sleep, never spin: a spinning generator takes a core the shards
      // need, and its wake-up lag counts in the latency anyway.
      std::this_thread::sleep_until(due);
      lag_us.push_back(Stopwatch::seconds_between(due, Stopwatch::now()) * 1e6);
      submit(due);
    }
    const ServiceStats at_end = service.stats();
    const std::size_t backlog = at_end.submitted - at_end.processed;
    service.drain();
    const obs::LatencyHistogram after =
        histogram(registry, "oisched_service_latency_seconds");
    RungResult result;
    result.rate = rate;
    result.p99_s = window_tail(before, after, 0.99, kMinBeyond);
    result.backlog_grew = static_cast<double>(backlog) > rate * kLatencyLimit_s + 1.0;
    if (rate == kRungs[0]) {
      colors.push_back(service.num_colors());
      lowest_before = before;
      lowest_after = after;
      lowest_work_before = work_before;
      lowest_work_after = histogram(registry, "oisched_event_latency_seconds");
      if (recorder != nullptr) {
        lowest_begin_us = Stopwatch::seconds_between(recorder->epoch(), start) * 1e6;
        lowest_end_us = Stopwatch::seconds_between(recorder->epoch(), Stopwatch::now()) * 1e6;
      }
    }
    std::cerr << "  rung " << rate << " events/s: p99 " << result.p99_s * 1e3
              << " ms, backlog at end " << backlog << '\n';
    return result;
  };
  const std::vector<RungResult> ladder = ladder_search(kRungs, kLatencyLimit_s, probe);
  const double max_rate = max_passing_rate(ladder, kLatencyLimit_s);

  // Untimed checks: every shard re-validates against the direct engine,
  // and matches a single-thread replay of its share of what was submitted.
  const ServiceStats stats = service.stats();
  report.attempted += cursor;
  report.failed += submit_failures + stats.rejected;
  report.expect(stats.processed == stats.submitted, "service lost events");
  report.expect(service.validate_against_direct(),
                "service fails validate_against_direct");
  const ChurnTrace submitted{kLinks, std::vector<ChurnEvent>(events.begin(),
                                                             events.begin() + cursor)};
  report.expect(service.validate_against_single_shard(submitted),
                "service differs from its single-shard oracle");

  // The lowest rung's figures: the scheduler's time per event inside the
  // shards (gated, like apply() on churn) and the latency from due time
  // (per-layer: at light load it is mostly thread wake-ups and host
  // stalls, which on a shared 4-vCPU host moved its p90 by up to 78%
  // across seeds).
  std::uint64_t samples = 0;
  const double latency_p50_us =
      window_quantile(lowest_before, lowest_after, 0.5, &samples) * 1e6;
  const double latency_p99_us =
      window_tail(lowest_before, lowest_after, 0.99, kMinBeyond) * 1e6;
  const double work_p50_us = window_quantile(lowest_work_before, lowest_work_after, 0.5) * 1e6;
  if (!options.trace) {
    EndToEnd e2e;
    e2e.setup_s = median(setup_s);
    e2e.peak_rss_mb = peak_rss_mb();
    e2e.events_per_s = median(saturated);
    e2e.event_p50_us = work_p50_us;
    e2e.event_p90_us =
        window_tail(lowest_work_before, lowest_work_after, 0.9, kMinBeyond) * 1e6;
    e2e.colors_final = std::accumulate(colors.begin(), colors.end(), 0.0) /
                       static_cast<double>(colors.size());
    add_end_to_end(e2e, report);
    std::cerr << "service-mobility: saturated";
    for (const double rate : saturated) std::cerr << ' ' << rate;
    std::cerr << " events/s, lowest rung latency from due time p50 " << latency_p50_us
              << " us, p99 " << latency_p99_us << " us (" << samples
              << " samples), max rate " << max_rate << " events/s, "
              << service.active_count() << " active, colors at fixed positions";
    for (const double c : colors) std::cerr << ' ' << c;
    std::cerr << ", " << involuntary_switches() - switches_before
              << " involuntary switches\n";
    return report;
  }

  // Traced run: service-layer waits and shape from the service's own spans
  // and counters, then the shard work at the online layer — each shard's
  // share of the submitted stream replayed through a bare scheduler, as
  // the single-shard oracle does, untraced and then with per-call spans.
  std::vector<double> queue_wait_us;
  for (const Span& span : parse_spans(recorder->to_json())) {
    if (span.name == "queue_wait" && span.ts_us >= lowest_begin_us &&
        span.ts_us < lowest_end_us) {
      queue_wait_us.push_back(span.dur_us);
    }
  }
  std::size_t max_shard_events = 0;
  std::size_t resident = 0;
  for (std::size_t s = 0; s < kShards; ++s) {
    max_shard_events = std::max(max_shard_events, service.shard(s).stats().events());
    resident += service.shard(s).gains().resident_doubles();
  }
  report.add("service.queue_wait_p50_us", percentile(queue_wait_us, 0.5).value, "us");
  report.add("service.queue_wait_p99_us", tail(queue_wait_us, 0.99, kMinBeyond).value, "us");
  report.add("service.work_p50_us", work_p50_us, "us");
  report.add("service.batch_mean",
             static_cast<double>(stats.processed) / static_cast<double>(stats.batches),
             "events");
  report.add("service.shard_imbalance",
             static_cast<double>(max_shard_events) * kShards /
                 static_cast<double>(stats.processed),
             "ratio");
  report.add("service.generator_lag_p99_us", tail(lag_us, 0.99, kMinBeyond).value, "us");
  report.add("service.max_rate_eps", max_rate, "events/s");
  report.add("service.latency_p50_us", latency_p50_us, "us");
  report.add("service.latency_p99_us", latency_p99_us, "us");
  report.add("gen.mean_length_drift", workload.mean_length_drift, "ratio");
  // One shard's private gain-table build: a bare scheduler constructed
  // with the shards' options, as each shard is under mobility.
  std::vector<double> build_s;
  time_setup(
      [&] {
        Stopwatch watch;
        const OnlineScheduler shard(instance, powers, params(), kVariant,
                                    service_options(nullptr, nullptr).scheduler);
        return watch.elapsed_seconds();
      },
      3, build_s);
  report.add("sinr.gain_build_s", median(build_s), "s");
  report.add("sinr.gain_resident_mb", static_cast<double>(resident) * 8.0 / (1024.0 * 1024.0),
             "MB");

  std::vector<std::vector<ChurnEvent>> shares(kShards);
  for (const ChurnEvent& event : submitted.events) {
    shares[service.shard_of(event.link)].push_back(event);
  }
  run.service.reset();
  report_online_layers(instance, powers, service_options(nullptr, nullptr).scheduler, shares,
                       report);
  report.add("os.involuntary_switches",
             static_cast<double>(involuntary_switches() - switches_before), "count");
  return report;
}

}  // namespace perfbench
