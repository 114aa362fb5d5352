#include "service/scheduler_service.h"

#include <algorithm>
#include <array>
#include <limits>
#include <thread>
#include <utility>

#include "util/error.h"
#include "util/rng.h"
#include "util/stopwatch.h"

namespace oisched {

/// Completion handle of a synchronous API call: lives on the caller's
/// stack, filled by the shard thread.
struct SchedulerService::Completion {
  std::promise<AdmitResult> promise;
};

struct SchedulerService::Shard {
  Shard(const Instance& instance, std::span<const double> powers,
        const SinrParams& params, Variant variant, OnlineSchedulerOptions options)
      : scheduler(instance, powers, params, variant, options) {}

  OnlineScheduler scheduler;  // shard-thread-only between construction and join
  MpscQueue<ServiceEvent> queue;
  std::thread thread;

  // Published by the shard thread once per batch under the service's
  // state_mutex_; everything the control plane reads while shards run.
  std::size_t processed = 0;
  std::size_t rejected = 0;
  /// Submit-to-completion latencies, as a bounded-memory histogram
  /// (exact count/mean/min/max, deterministic bounded-error quantiles)
  /// instead of the raw vector it replaced — a drained saturation run
  /// used to retain one double per event forever.
  obs::LatencyHistogram latency;
  OnlineStats stats_snapshot;
  ShardBoundarySummary summary;

  // Telemetry sinks (set iff the service has a registry / recorder):
  // obs_shard is written by this shard's thread only.
  obs::MetricsShard* obs_shard = nullptr;
  obs::TraceTrack* track = nullptr;
  obs::MetricId latency_metric = 0;
  obs::MetricId batch_metric = 0;
  obs::MetricId queue_depth_metric = 0;
  obs::MetricId processed_metric = 0;
  obs::MetricId rejected_metric = 0;
};

SchedulerService::SchedulerService(const Instance& instance,
                                   std::span<const double> powers,
                                   const SinrParams& params, Variant variant,
                                   SchedulerServiceOptions options)
    : instance_(instance),
      powers_(powers.begin(), powers.end()),
      params_(params),
      variant_(variant),
      options_(std::move(options)) {
  require(options_.num_shards >= 1, "SchedulerService: num_shards must be >= 1");
  require(options_.num_shards <= instance.size(),
          "SchedulerService: more shards than links");
  // Telemetry registration runs BEFORE any obs shard is created (a
  // shard's slot table is fixed at creation) and before the schedulers
  // are built (each gets its sinks through its options).
  obs::MetricsRegistry* registry = options_.registry;
  std::vector<OnlineMetricIds> online_ids;
  std::vector<std::array<obs::MetricId, 5>> shard_ids;
  if (registry != nullptr) {
    for (std::size_t s = 0; s < options_.num_shards; ++s) {
      const std::string labels = "shard=\"" + std::to_string(s) + "\"";
      online_ids.push_back(OnlineMetricIds::register_in(*registry, labels));
      shard_ids.push_back(
          {registry->histogram("oisched_service_latency_seconds",
                               "Submit-to-completion latency (queue wait + work)",
                               labels),
           registry->histogram("oisched_service_batch_size",
                               "Events per consumer-side queue drain", labels),
           registry->gauge("oisched_service_queue_depth",
                           "Events pushed but not yet drained (sampled at scrape)",
                           labels),
           registry->counter("oisched_service_processed_total",
                             "Events completed by the shard thread", labels),
           registry->counter("oisched_service_rejected_total",
                             "Events completed with success == false", labels)});
    }
    submitted_metric_ = registry->counter("oisched_service_submitted_total",
                                          "Events accepted into a shard queue");
    refused_metric_ = registry->counter(
        "oisched_service_refused_total",
        "Events refused before routing (out-of-range link, link_arrival, stopped)");
    boundary_refreshes_metric_ =
        registry->counter("oisched_service_boundary_refreshes_total",
                          "Boundary-summary publications across all shards");
    boundary_margin_metric_ =
        registry->gauge("oisched_boundary_min_worst_margin",
                        "Min published class margin across shards (0 if none)");
    boundary_gain_metric_ = registry->gauge(
        "oisched_boundary_max_gain",
        "Max gain any remote active link contributes at a shard's links");
    boundary_packable_metric_ =
        registry->gauge("oisched_boundary_packable_pairs",
                        "Conservative cross-shard packable class pairs");
    gain_resident_metric_ = registry->gauge(
        "oisched_gain_resident_doubles",
        "Gain-table entries resident across the shards' distinct matrices");
    ingest_shard_ = &registry->create_shard();
  }
  // Sequential construction: the first shard pays the instance's gain-table
  // build (or its own, under mobility), the rest hit the cache.
  shards_.reserve(options_.num_shards);
  for (std::size_t s = 0; s < options_.num_shards; ++s) {
    OnlineSchedulerOptions scheduler_options = options_.scheduler;
    // Each shard gets its OWN sinks (or none) — a caller-provided shard
    // shared across N threads would break the single-writer contract.
    scheduler_options.telemetry = {};
    obs::TraceTrack* track = nullptr;
    if (options_.trace != nullptr) {
      track = &options_.trace->create_track("shard" + std::to_string(s));
      scheduler_options.telemetry.trace = track;
    }
    if (registry != nullptr) {
      scheduler_options.telemetry.shard = &registry->create_shard();
      scheduler_options.telemetry.ids = online_ids[s];
    }
    shards_.push_back(std::make_unique<Shard>(instance_, powers_, params_, variant_,
                                              scheduler_options));
    Shard& shard = *shards_.back();
    shard.track = track;
    if (registry != nullptr) {
      shard.obs_shard = scheduler_options.telemetry.shard;
      shard.latency_metric = shard_ids[s][0];
      shard.batch_metric = shard_ids[s][1];
      shard.queue_depth_metric = shard_ids[s][2];
      shard.processed_metric = shard_ids[s][3];
      shard.rejected_metric = shard_ids[s][4];
    }
  }
  if (registry != nullptr) {
    // Queue depths and boundary aggregates are cheaper to sample at
    // scrape than to maintain per event. Lock order is registry mutex →
    // state_mutex_ / queue mutexes; shard threads never take the
    // registry mutex, so the order is acyclic.
    registry->add_collector([this](obs::MetricsShard& sink) {
      for (const auto& shard : shards_) {
        sink.set(shard->queue_depth_metric,
                 static_cast<double>(shard->queue.pending()));
      }
      const BoundaryReport report = boundary_report();
      sink.set(boundary_margin_metric_, report.min_worst_margin);
      sink.set(boundary_gain_metric_, report.max_boundary_gain);
      sink.set(boundary_packable_metric_,
               static_cast<double>(report.packable_class_pairs));
      // Gain-table residency over the DISTINCT matrices (shards without
      // mobility share the instance's cached tables; an owned matrix is
      // private to its shard). GainMatrix::resident_doubles is safe to
      // sample while the shards run.
      std::vector<const GainMatrix*> seen;
      std::size_t resident = 0;
      for (const auto& shard : shards_) {
        const GainMatrix* gains = &shard->scheduler.gains();
        if (std::find(seen.begin(), seen.end(), gains) != seen.end()) continue;
        seen.push_back(gains);
        resident += gains->resident_doubles();
      }
      sink.set(gain_resident_metric_, static_cast<double>(resident));
    });
  }
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    shards_[s]->thread = std::thread([this, s] { shard_loop(s); });
  }
}

SchedulerService::~SchedulerService() { stop(); }

std::size_t SchedulerService::shard_of(std::size_t link) const noexcept {
  std::uint64_t state = static_cast<std::uint64_t>(link);
  return static_cast<std::size_t>(splitmix64(state) % shards_.size());
}

std::size_t SchedulerService::universe() const noexcept { return instance_.size(); }

Expected<void> SchedulerService::route(const ChurnEvent& event, Completion* completion,
                                       Stopwatch::TimePoint submitted) {
  std::string refusal;
  if (event.kind == ChurnEvent::Kind::link_arrival) {
    refusal =
        "SchedulerService: link_arrival (universe growth) is not supported under sharding";
  } else if (event.link >= universe()) {
    refusal = "SchedulerService: link " + std::to_string(event.link) +
              " is out of range (universe " + std::to_string(universe()) + ")";
  }
  // Counting and enqueueing under one lock makes submitted_ >= processed
  // an invariant drain() can wait on; push() takes the queue's own mutex
  // inside ours (shard threads never hold theirs while taking ours, so the
  // order is acyclic). Refusals are counted under the same lock, which
  // keeps the ingest obs shard single-writer.
  std::lock_guard<std::mutex> lock(state_mutex_);
  if (refusal.empty()) {
    Shard& shard = *shards_[shard_of(event.link)];
    if (!stopped_ && shard.queue.push(ServiceEvent{event, submitted, completion})) {
      ++submitted_;
      if (ingest_shard_ != nullptr) ingest_shard_->add(submitted_metric_);
      return {};
    }
    refusal = "SchedulerService: the service is stopped";
  }
  if (ingest_shard_ != nullptr) ingest_shard_->add(refused_metric_);
  return fail(refusal);
}

AdmitResult SchedulerService::call(const ChurnEvent& event) {
  Completion completion;
  std::future<AdmitResult> future = completion.promise.get_future();
  if (Expected<void> routed = route(event, &completion, Stopwatch::now()); !routed) {
    AdmitResult result;
    result.error = routed.error();
    result.shard = event.link < universe() ? shard_of(event.link) : 0;
    return result;
  }
  return future.get();
}

AdmitResult SchedulerService::admit(const AdmitRequest& request) {
  return call(ChurnEvent{ChurnEvent::Kind::arrival, request.link, 0.0, {}});
}

AdmitResult SchedulerService::release(const ReleaseRequest& request) {
  return call(ChurnEvent{ChurnEvent::Kind::departure, request.link, 0.0, {}});
}

AdmitResult SchedulerService::update(const UpdateRequest& request) {
  return call(
      ChurnEvent{ChurnEvent::Kind::link_update, request.link, 0.0, request.endpoints});
}

Expected<void> SchedulerService::submit(const ChurnEvent& event) {
  return route(event, nullptr, Stopwatch::now());
}

Expected<void> SchedulerService::submit(const ChurnEvent& event,
                                        Stopwatch::TimePoint submitted) {
  return route(event, nullptr, submitted);
}

AdmitResult SchedulerService::process_event(Shard& shard, const ServiceEvent& event) {
  AdmitResult result;
  result.shard = shard_of(event.event.link);
  try {
    switch (event.event.kind) {
      case ChurnEvent::Kind::arrival:
        result.color = shard.scheduler.on_arrival(event.event.link);
        break;
      case ChurnEvent::Kind::departure:
        shard.scheduler.on_departure(event.event.link);
        break;
      case ChurnEvent::Kind::link_update:
        result.color =
            shard.scheduler.on_link_update(event.event.link, event.event.request);
        break;
      case ChurnEvent::Kind::link_arrival:
        // route() rejects these before they reach a queue.
        throw PreconditionError("SchedulerService: link_arrival reached a shard");
    }
    result.success = true;
  } catch (const std::exception& e) {
    // Every scheduler precondition throws before any mutation, so the
    // shard state is untouched — the event becomes a structured rejection.
    result.success = false;
    result.color = -1;
    result.error = e.what();
  }
  result.latency_seconds = Stopwatch::seconds_between(event.submitted, Stopwatch::now());
  return result;
}

void SchedulerService::shard_loop(std::size_t index) {
  Shard& shard = *shards_[index];
  std::vector<ServiceEvent> batch;
  std::size_t since_refresh = 0;
  std::uint64_t refreshes = 0;
  while (shard.queue.drain(batch)) {
    obs::LatencyHistogram latency;  // this batch's observations
    std::size_t rejected = 0;
    bool publish_summary = false;
    ShardBoundarySummary summary;
    if (shard.obs_shard != nullptr) {
      shard.obs_shard->observe(shard.batch_metric, static_cast<double>(batch.size()));
    }
    for (const ServiceEvent& event : batch) {
      if (shard.track != nullptr) {
        shard.track->record("queue_wait", event.submitted, Stopwatch::now());
      }
      AdmitResult result = process_event(shard, event);
      if (!result.success) ++rejected;
      latency.observe(result.latency_seconds);
      if (shard.obs_shard != nullptr) {
        shard.obs_shard->observe(shard.latency_metric, result.latency_seconds);
        shard.obs_shard->add(shard.processed_metric);
        if (!result.success) shard.obs_shard->add(shard.rejected_metric);
      }
      if (event.completion != nullptr) {
        event.completion->promise.set_value(std::move(result));
      }
      if (options_.boundary_refresh_events > 0 &&
          ++since_refresh >= options_.boundary_refresh_events) {
        OISCHED_TRACE_SPAN(shard.track, "boundary_refresh");
        summary = compute_summary(index);
        summary.refreshes = ++refreshes;
        publish_summary = true;
        since_refresh = 0;
      }
    }
    {
      std::lock_guard<std::mutex> lock(state_mutex_);
      shard.processed += batch.size();
      shard.rejected += rejected;
      shard.latency.merge(latency);
      shard.stats_snapshot = shard.scheduler.stats();
      if (publish_summary) {
        summary.events_at_refresh = shard.processed;
        shard.summary = std::move(summary);
        ++boundary_refreshes_;
        if (ingest_shard_ != nullptr) ingest_shard_->add(boundary_refreshes_metric_);
      }
    }
    drained_cv_.notify_all();
  }
}

void SchedulerService::drain() {
  std::unique_lock<std::mutex> lock(state_mutex_);
  drained_cv_.wait(lock, [&] {
    std::size_t processed = 0;
    for (const auto& shard : shards_) processed += shard->processed;
    return processed == submitted_;
  });
}

void SchedulerService::stop() {
  {
    std::unique_lock<std::mutex> lock(state_mutex_);
    if (stopped_) return;
    drained_cv_.wait(lock, [&] {
      std::size_t processed = 0;
      for (const auto& shard : shards_) processed += shard->processed;
      return processed == submitted_;
    });
    stopped_ = true;
  }
  for (const auto& shard : shards_) shard->queue.close();
  for (const auto& shard : shards_) {
    if (shard->thread.joinable()) shard->thread.join();
  }
}

ServiceStats SchedulerService::stats() const {
  std::lock_guard<std::mutex> lock(state_mutex_);
  ServiceStats out;
  out.submitted = submitted_;
  out.boundary_refreshes = boundary_refreshes_;
  obs::LatencyHistogram latency;
  for (const auto& shard : shards_) {
    out.processed += shard->processed;
    out.rejected += shard->rejected;
    out.batches += shard->queue.batches();
    latency.merge(shard->latency);
    const OnlineStats& s = shard->stats_snapshot;
    out.scheduler.arrivals += s.arrivals;
    out.scheduler.departures += s.departures;
    out.scheduler.fresh_links += s.fresh_links;
    out.scheduler.link_updates += s.link_updates;
    out.scheduler.update_migrations += s.update_migrations;
    out.scheduler.classes_opened += s.classes_opened;
    out.scheduler.classes_closed += s.classes_closed;
    out.scheduler.migrations += s.migrations;
    out.scheduler.compaction_skips += s.compaction_skips;
    out.scheduler.removal_rebuilds += s.removal_rebuilds;
    out.scheduler.bound_hits += s.bound_hits;
    out.scheduler.exact_fallbacks += s.exact_fallbacks;
    out.scheduler.peak_colors = std::max(out.scheduler.peak_colors, s.peak_colors);
    out.scheduler.total_event_seconds += s.total_event_seconds;
    out.scheduler.max_event_seconds =
        std::max(out.scheduler.max_event_seconds, s.max_event_seconds);
  }
  out.latency = summarize(latency);
  return out;
}

const OnlineScheduler& SchedulerService::shard(std::size_t s) const {
  require(s < shards_.size(), "SchedulerService: shard index out of range");
  return shards_[s]->scheduler;
}

Schedule SchedulerService::snapshot() const {
  // Per-shard color offsets realize the disjoint-plane rule: shard s's
  // local color c becomes global color offset[s] + c, so every global
  // class is exactly one shard's class.
  std::vector<int> offsets(shards_.size(), 0);
  int total = 0;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    offsets[s] = total;
    total += shards_[s]->scheduler.num_colors();
  }
  Schedule schedule;
  schedule.num_colors = total;
  schedule.color_of.assign(universe(), -1);
  for (std::size_t link = 0; link < universe(); ++link) {
    const std::size_t s = shard_of(link);
    const int local = shards_[s]->scheduler.color_of(link);
    if (local >= 0) schedule.color_of[link] = offsets[s] + local;
  }
  return schedule;
}

std::size_t SchedulerService::active_count() const {
  std::size_t active = 0;
  for (const auto& shard : shards_) active += shard->scheduler.active_count();
  return active;
}

int SchedulerService::num_colors() const {
  int colors = 0;
  for (const auto& shard : shards_) colors += shard->scheduler.num_colors();
  return colors;
}

bool SchedulerService::validate_against_direct(double* worst_margin) const {
  double worst = std::numeric_limits<double>::infinity();
  bool ok = true;
  for (const auto& shard : shards_) {
    double margin = std::numeric_limits<double>::infinity();
    if (!shard->scheduler.validate_against_direct(&margin)) ok = false;
    worst = std::min(worst, margin);
  }
  if (worst_margin != nullptr) *worst_margin = worst;
  return ok;
}

bool SchedulerService::validate_against_single_shard(const ChurnTrace& trace) const {
  if (trace.universe != universe()) return false;
  if (trace.has_fresh_links()) return false;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const OnlineScheduler& live = shards_[s]->scheduler;
    // The oracle: a fresh single-thread scheduler, same construction,
    // replaying exactly this shard's sub-trace in trace order. Same
    // construction EXCEPT telemetry — the oracle must not write into the
    // live shard's single-writer sinks (and its metrics would double
    // every counter).
    OnlineSchedulerOptions oracle_options = options_.scheduler;
    oracle_options.telemetry = {};
    OnlineScheduler oracle(instance_, powers_, params_, variant_, oracle_options);
    for (const ChurnEvent& event : trace.events) {
      if (shard_of(event.link) == s) oracle.apply(event);
    }
    if (oracle.num_colors() != live.num_colors()) return false;
    if (oracle.active_count() != live.active_count()) return false;
    for (std::size_t link = 0; link < universe(); ++link) {
      if (oracle.color_of(link) != live.color_of(link)) return false;
    }
    const OnlineStats& a = oracle.stats();
    const OnlineStats& b = live.stats();
    if (a.arrivals != b.arrivals || a.departures != b.departures ||
        a.fresh_links != b.fresh_links || a.link_updates != b.link_updates ||
        a.update_migrations != b.update_migrations ||
        a.classes_opened != b.classes_opened || a.classes_closed != b.classes_closed ||
        a.migrations != b.migrations || a.compaction_skips != b.compaction_skips ||
        a.removal_rebuilds != b.removal_rebuilds || a.peak_colors != b.peak_colors) {
      return false;
    }
    // Accumulators bit for bit: the shard's incremental state IS the
    // oracle's, not merely equivalent to it.
    const auto& live_classes = live.classes();
    const auto& oracle_classes = oracle.classes();
    if (live_classes.size() != oracle_classes.size()) return false;
    for (std::size_t c = 0; c < live_classes.size(); ++c) {
      if (live_classes[c].members() != oracle_classes[c].members()) return false;
      for (std::size_t i = 0; i < universe(); ++i) {
        if (live_classes[c].accumulator_v(i) != oracle_classes[c].accumulator_v(i) ||
            live_classes[c].accumulator_u(i) != oracle_classes[c].accumulator_u(i)) {
          return false;
        }
      }
    }
  }
  return true;
}

ShardBoundarySummary SchedulerService::compute_summary(std::size_t index) const {
  const Shard& shard = *shards_[index];
  const OnlineScheduler& sched = shard.scheduler;
  const GainMatrix& gains = sched.gains();
  ShardBoundarySummary out;
  for (const IncrementalGainClass& cls : sched.classes()) {
    ShardClassSummary summary;
    summary.size = cls.size();
    if (!cls.members().empty()) {
      // Exact intra-shard margin via the from-scratch checker — periodic
      // control-plane work, never on the admission path.
      summary.worst_margin = check_feasible(gains, cls.members(), params_).worst_margin;
    }
    double headroom = std::numeric_limits<double>::infinity();
    for (const std::size_t m : cls.members()) {
      // Slack in interference units at m's constrained endpoints: the
      // admission rule is signal > beta * (acc + noise), so the class
      // absorbs up to signal/beta - noise - acc more interference at m.
      const double budget = gains.signal(m) / params_.beta - params_.noise;
      headroom = std::min(headroom, budget - cls.accumulator_v(m));
      if (variant_ == Variant::bidirectional) {
        headroom = std::min(headroom, budget - cls.accumulator_u(m));
      }
      summary.total_power += gains.powers()[m];
    }
    summary.headroom = cls.members().empty() ? 0.0 : headroom;
    out.classes.push_back(summary);
    out.active.insert(out.active.end(), cls.members().begin(), cls.members().end());
  }
  std::sort(out.active.begin(), out.active.end());
  // Far-field bound: the strongest contribution any remote active link
  // (per the latest remote publications) makes at any of this shard's
  // active links. Under mobility a remote link's row in this shard's
  // private matrix keeps its last-seen geometry — a monitoring bound, not
  // an admission input.
  std::vector<std::size_t> remote;
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      if (s == index) continue;
      remote.insert(remote.end(), shards_[s]->summary.active.begin(),
                    shards_[s]->summary.active.end());
    }
  }
  for (const std::size_t r : remote) {
    for (const std::size_t m : out.active) {
      out.max_boundary_gain = std::max(out.max_boundary_gain, gains.at_v(r, m));
      if (variant_ == Variant::bidirectional) {
        out.max_boundary_gain = std::max(out.max_boundary_gain, gains.at_u(r, m));
      }
    }
  }
  return out;
}

BoundaryReport SchedulerService::aggregate_boundary_locked() const {
  BoundaryReport report;
  report.min_worst_margin = std::numeric_limits<double>::infinity();
  bool any_class = false;
  for (const auto& shard : shards_) {
    report.shards.push_back(shard->summary);
    report.max_boundary_gain =
        std::max(report.max_boundary_gain, shard->summary.max_boundary_gain);
    for (const ShardClassSummary& cls : shard->summary.classes) {
      any_class = true;
      report.min_worst_margin = std::min(report.min_worst_margin, cls.worst_margin);
    }
  }
  if (!any_class) report.min_worst_margin = 0.0;
  // Conservative cross-shard packing estimate: classes a (shard s) and b
  // (shard t) could share a color if each side's headroom absorbs the
  // other side even when every remote member contributes the max-gain
  // bound.
  for (std::size_t s = 0; s < report.shards.size(); ++s) {
    for (std::size_t t = s + 1; t < report.shards.size(); ++t) {
      const double bound_s = report.shards[s].max_boundary_gain;
      const double bound_t = report.shards[t].max_boundary_gain;
      for (const ShardClassSummary& a : report.shards[s].classes) {
        for (const ShardClassSummary& b : report.shards[t].classes) {
          if (a.size == 0 || b.size == 0) continue;
          const bool a_absorbs = static_cast<double>(b.size) * bound_s <= a.headroom;
          const bool b_absorbs = static_cast<double>(a.size) * bound_t <= b.headroom;
          if (a_absorbs && b_absorbs) ++report.packable_class_pairs;
        }
      }
    }
  }
  return report;
}

BoundaryReport SchedulerService::refresh_boundary() {
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    ShardBoundarySummary summary = compute_summary(s);
    std::lock_guard<std::mutex> lock(state_mutex_);
    summary.refreshes = shards_[s]->summary.refreshes + 1;
    summary.events_at_refresh = shards_[s]->processed;
    shards_[s]->summary = std::move(summary);
    ++boundary_refreshes_;
    if (ingest_shard_ != nullptr) ingest_shard_->add(boundary_refreshes_metric_);
  }
  std::lock_guard<std::mutex> lock(state_mutex_);
  return aggregate_boundary_locked();
}

BoundaryReport SchedulerService::boundary_report() const {
  std::lock_guard<std::mutex> lock(state_mutex_);
  return aggregate_boundary_locked();
}

Expected<ServiceReplayResult> replay_trace(SchedulerService& service,
                                           const ChurnTrace& trace,
                                           ServiceReplayOptions options) {
  if (trace.universe != service.universe()) {
    return fail("service replay: trace universe " + std::to_string(trace.universe) +
                " does not match the service universe " +
                std::to_string(service.universe()));
  }
  if (trace.has_fresh_links()) {
    return fail(
        "service replay: the trace grows the universe (link_arrival events), "
        "which sharded scheduling does not support — replay it through a "
        "single OnlineScheduler with a fresh_power rule instead");
  }
  const Stopwatch::TimePoint start = Stopwatch::now();
  std::size_t submitted = 0;
  for (const ChurnEvent& event : trace.events) {
    // One clock read per event, shared between the pacing decision and
    // the submitted stamp latency is measured from — separate reads let
    // the two drift apart (the stamp landing later than the pacing
    // check believed, shaving queue wait off every latency).
    Stopwatch::TimePoint now = Stopwatch::now();
    if (options.arrival_rate > 0.0) {
      // Open-loop pacing: event k is due at start + k/rate regardless of
      // completions — under overload the backlog (and the latency tail)
      // grows, which is exactly what the saturation sweep measures.
      const auto due =
          start + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                      std::chrono::duration<double>(static_cast<double>(submitted) /
                                                    options.arrival_rate));
      if (due > now) {
        std::this_thread::sleep_until(due);
        now = Stopwatch::now();  // re-read only after actually sleeping
      }
    }
    if (Expected<void> ok = service.submit(event, now); !ok) return fail(ok.error());
    ++submitted;
  }
  service.drain();
  const double wall = Stopwatch::seconds_between(start, Stopwatch::now());

  ServiceReplayResult result;
  result.boundary = service.refresh_boundary();
  result.stats = service.stats();
  result.wall_seconds = wall;
  result.events_per_sec =
      wall > 0.0 ? static_cast<double>(result.stats.processed) / wall : 0.0;
  result.final_schedule = service.snapshot();
  result.final_colors = result.final_schedule.num_colors;
  result.final_active = service.active_count();
  result.final_universe = service.universe();
  for (std::size_t s = 0; s < service.num_shards(); ++s) {
    result.shard_events.push_back(service.shard(s).stats().events());
  }
  if (options.validate_final) {
    result.validated = service.validate_against_direct(&result.final_worst_margin);
  }
  if (options.check_oracle) {
    result.oracle_identical = service.validate_against_single_shard(trace);
  }
  return result;
}

}  // namespace oisched
