#include "online/online_scheduler.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "sinr/feasibility.h"
#include "util/error.h"
#include "util/stopwatch.h"

namespace oisched {

OnlineMetricIds OnlineMetricIds::register_in(obs::MetricsRegistry& registry,
                                             std::string labels) {
  OnlineMetricIds ids;
  ids.events = registry.counter("oisched_events_total",
                                "Scheduler events processed (all kinds)", labels);
  ids.event_latency = registry.histogram("oisched_event_latency_seconds",
                                         "Per-event processing latency", labels);
  ids.arrivals = registry.counter("oisched_arrivals_total", "Link arrivals", labels);
  ids.departures = registry.counter("oisched_departures_total", "Link departures", labels);
  ids.link_updates = registry.counter("oisched_link_updates_total",
                                      "Endpoint-motion events applied in place", labels);
  ids.fresh_links = registry.counter(
      "oisched_fresh_links_total", "Arrivals that grew the link universe", labels);
  ids.update_migrations =
      registry.counter("oisched_update_migrations_total",
                       "Link updates that broke the class and forced re-placement",
                       labels);
  ids.migrations = registry.counter("oisched_migrations_total",
                                    "Links recolored by compaction", labels);
  ids.compaction_skips = registry.counter(
      "oisched_compaction_skips_total", "Immovable members compaction skipped", labels);
  ids.removal_rebuilds =
      registry.counter("oisched_removal_rebuilds_total",
                       "Full accumulator replays triggered by removals", labels);
  ids.bound_hits = registry.counter(
      "oisched_bound_hits_total",
      "Feasibility tests certified from far-field bounds alone", labels);
  ids.exact_fallbacks = registry.counter(
      "oisched_exact_fallbacks_total",
      "Feasibility tests that fell back to an exact row reconstruction", labels);
  ids.classes_opened =
      registry.counter("oisched_classes_opened_total", "Color classes opened", labels);
  ids.classes_closed =
      registry.counter("oisched_classes_closed_total", "Color classes closed", labels);
  ids.colors = registry.gauge("oisched_colors", "Color classes currently live", labels);
  ids.active_links =
      registry.gauge("oisched_active_links", "Links currently active", std::move(labels));
  return ids;
}

OnlineScheduler::OnlineScheduler(const Instance& instance, std::span<const double> powers,
                                 const SinrParams& params, Variant variant,
                                 OnlineSchedulerOptions options)
    : instance_(instance),
      powers_(powers.begin(), powers.end()),
      params_(params),
      variant_(variant),
      options_(std::move(options)),
      color_of_(instance.size(), -1) {
  require(powers_.size() == instance_.size(), "OnlineScheduler: one power per link");
  params_.validate();
  if (options_.mobility || options_.fresh_power != nullptr ||
      options_.storage == GainBackend::computed) {
    // A matrix that mutates (growth or endpoint motion) cannot be shared
    // through the instance cache — the scheduler owns it and is the only
    // writer. The computed backend's single-owner row cache keeps it out
    // of the cache too.
    owned_gains_ = std::make_shared<GainMatrix>(instance_.metric(), instance_.requests(),
                                                powers_, params_.alpha, variant_,
                                                /*with_sender_gains=*/false,
                                                options_.storage);
    gains_ = owned_gains_;
  } else {
    gains_ = instance.gains(powers_, params_.alpha, variant_);
  }
  if (options_.farfield) {
    require(options_.remove_policy == RemovePolicy::exact,
            "OnlineScheduler: far-field mode needs the exact remove policy — its "
            "order-free accumulators are what makes bound-gated tests "
            "bit-identical to the exact-only path");
    auto euclid =
        std::dynamic_pointer_cast<const EuclideanMetric>(instance.metric_ptr());
    require(euclid != nullptr,
            "OnlineScheduler: far-field mode needs a Euclidean metric (the cell "
            "grid partitions coordinates)");
    farfield_ = std::make_shared<FarFieldContext>(
        std::move(euclid),
        std::vector<Request>(instance_.requests().begin(), instance_.requests().end()),
        powers_, params_.alpha, variant_, options_.farfield_options);
  }
}

int OnlineScheduler::color_of(std::size_t link) const {
  require(link < color_of_.size(), "OnlineScheduler: link index out of range");
  return color_of_[link];
}

int OnlineScheduler::place(std::size_t link) {
  // First-fit in two phases so the trace separates "finding a color"
  // (row scans against every class's accumulators) from "committing it"
  // (one class's accumulator update) — same scan-then-add the fused loop
  // performed.
  int color = -1;
  {
    OISCHED_TRACE_SPAN(options_.telemetry.trace, "feasibility_scan");
    for (std::size_t c = 0; c < classes_.size(); ++c) {
      if (classes_[c].can_add(link)) {
        color = static_cast<int>(c);
        break;
      }
    }
  }
  OISCHED_TRACE_SPAN(options_.telemetry.trace, "accumulator_update");
  if (color >= 0) {
    classes_[static_cast<std::size_t>(color)].add(link);
    return color;
  }
  classes_.emplace_back(*gains_, params_, options_.remove_policy,
                        options_.rebuild_interval, farfield_.get());
  classes_.back().add(link);
  ++stats_.classes_opened;
  return static_cast<int>(classes_.size() - 1);
}

void OnlineScheduler::sync_farfield_stats() {
  if (farfield_ == nullptr) return;
  stats_.bound_hits = static_cast<std::size_t>(farfield_->bound_hits());
  stats_.exact_fallbacks = static_cast<std::size_t>(farfield_->exact_fallbacks());
}

void OnlineScheduler::publish_event(const OnlineStats& before, double elapsed_seconds) {
  obs::MetricsShard& shard = *options_.telemetry.shard;
  const OnlineMetricIds& ids = options_.telemetry.ids;
  const auto bump = [&shard](obs::MetricId id, std::size_t now, std::size_t was) {
    if (now != was) shard.add(id, now - was);
  };
  shard.add(ids.events);
  shard.observe(ids.event_latency, elapsed_seconds);
  bump(ids.arrivals, stats_.arrivals, before.arrivals);
  bump(ids.departures, stats_.departures, before.departures);
  bump(ids.link_updates, stats_.link_updates, before.link_updates);
  bump(ids.fresh_links, stats_.fresh_links, before.fresh_links);
  bump(ids.update_migrations, stats_.update_migrations, before.update_migrations);
  bump(ids.migrations, stats_.migrations, before.migrations);
  bump(ids.compaction_skips, stats_.compaction_skips, before.compaction_skips);
  bump(ids.removal_rebuilds, stats_.removal_rebuilds, before.removal_rebuilds);
  bump(ids.bound_hits, stats_.bound_hits, before.bound_hits);
  bump(ids.exact_fallbacks, stats_.exact_fallbacks, before.exact_fallbacks);
  bump(ids.classes_opened, stats_.classes_opened, before.classes_opened);
  bump(ids.classes_closed, stats_.classes_closed, before.classes_closed);
  shard.set(ids.colors, static_cast<double>(num_colors()));
  shard.set(ids.active_links, static_cast<double>(active_count_));
}

int OnlineScheduler::on_arrival(std::size_t link) {
  require(link < color_of_.size(), "OnlineScheduler: link index out of range");
  require(color_of_[link] < 0, "OnlineScheduler: arrival of an already active link");
  const bool telemetry = options_.telemetry.shard != nullptr;
  const OnlineStats before = telemetry ? stats_ : OnlineStats{};
  Stopwatch watch;
  const int color = place(link);
  color_of_[link] = color;
  ++active_count_;
  ++stats_.arrivals;
  stats_.peak_colors = std::max(stats_.peak_colors, num_colors());
  sync_farfield_stats();
  const double elapsed = watch.elapsed_seconds();
  stats_.total_event_seconds += elapsed;
  stats_.max_event_seconds = std::max(stats_.max_event_seconds, elapsed);
  if (telemetry) publish_event(before, elapsed);
  return color;
}

int OnlineScheduler::on_link_arrival(const Request& request) {
  require(options_.fresh_power != nullptr,
          "OnlineScheduler: fresh links need an oblivious power rule (fresh_power)");
  require(options_.storage == GainBackend::dense,
          "OnlineScheduler: growing the universe needs the dense backend");
  require(request.u < instance_.metric().size() && request.v < instance_.metric().size(),
          "OnlineScheduler: fresh link endpoint out of metric range");
  const bool telemetry = options_.telemetry.shard != nullptr;
  const OnlineStats before = telemetry ? stats_ : OnlineStats{};
  Stopwatch watch;
  // Oblivious by construction: the power is a function of the link's own
  // loss, so nothing already scheduled needs revisiting.
  const double loss = link_loss(instance_.metric(), request, params_.alpha);
  require(loss > 0.0, "OnlineScheduler: fresh link endpoints must be distinct points");
  const double power = options_.fresh_power->power_for_loss(loss);
  const std::size_t link = owned_gains_->append_request(request, power);
  powers_.push_back(power);
  if (farfield_ != nullptr) farfield_->append_link(request, power);
  for (IncrementalGainClass& cls : classes_) cls.sync_universe();
  color_of_.push_back(-1);
  const int color = place(link);
  color_of_[link] = color;
  ++active_count_;
  ++stats_.arrivals;
  ++stats_.fresh_links;
  stats_.peak_colors = std::max(stats_.peak_colors, num_colors());
  sync_farfield_stats();
  const double elapsed = watch.elapsed_seconds();
  stats_.total_event_seconds += elapsed;
  stats_.max_event_seconds = std::max(stats_.max_event_seconds, elapsed);
  if (telemetry) publish_event(before, elapsed);
  return color;
}

int OnlineScheduler::on_link_update(std::size_t link, const Request& request) {
  require(owned_gains_ != nullptr,
          "OnlineScheduler: endpoint motion needs the mobility option — the "
          "shared gain cache must never mutate");
  require(link < color_of_.size(), "OnlineScheduler: link index out of range");
  const int color = color_of_[link];
  require(color >= 0, "OnlineScheduler: update of an inactive link");
  require(request.u < instance_.metric().size() && request.v < instance_.metric().size(),
          "OnlineScheduler: link endpoint out of metric range");
  const bool telemetry = options_.telemetry.shard != nullptr;
  const OnlineStats before = telemetry ? stats_ : OnlineStats{};
  Stopwatch watch;
  const double loss = link_loss(instance_.metric(), request, params_.alpha);
  require(loss > 0.0, "OnlineScheduler: link endpoints must be distinct points");
  // Oblivious re-powering: the moved link's length changed, and its power
  // is a function of that length alone — nothing else needs revisiting.
  const double power = options_.fresh_power != nullptr
                           ? options_.fresh_power->power_for_loss(loss)
                           : powers_[link];
  {
    OISCHED_TRACE_SPAN(options_.telemetry.trace, "accumulator_update");
    // Bracket the table refresh: every class first subtracts what it read
    // from the stale row (and, in far-field mode, the stale cell bounds),
    // then the matrix and the far-field context move the link, then every
    // class adds the new row back under the new geometry and re-derives
    // the link's own slot.
    for (IncrementalGainClass& cls : classes_) cls.begin_link_update(link);
    owned_gains_->update_request(link, request, power);
    powers_[link] = power;
    if (farfield_ != nullptr) farfield_->update_link(link, request, power);
    for (IncrementalGainClass& cls : classes_) {
      const std::size_t rebuilds_before = cls.removal_rebuilds();
      cls.finish_link_update(link);
      stats_.removal_rebuilds += cls.removal_rebuilds() - rebuilds_before;
    }
  }
  ++stats_.link_updates;

  // Only the moved link's own class can have broken: in every other class
  // the accumulated sums merely swapped one non-member's contribution.
  int new_color = color;
  IncrementalGainClass& owner = classes_[static_cast<std::size_t>(color)];
  if (!owner.members_feasible()) {
    // Eviction restores the survivors (interference sums only shrink);
    // then the moved link is re-placed like a fresh arrival.
    const std::size_t rebuilds_before = owner.removal_rebuilds();
    owner.remove(link);
    stats_.removal_rebuilds += owner.removal_rebuilds() - rebuilds_before;
    color_of_[link] = -1;
    compact_from(static_cast<std::size_t>(color));
    new_color = place(link);
    color_of_[link] = new_color;
    ++stats_.update_migrations;
    stats_.peak_colors = std::max(stats_.peak_colors, num_colors());
  }
  sync_farfield_stats();
  const double elapsed = watch.elapsed_seconds();
  stats_.total_event_seconds += elapsed;
  stats_.max_event_seconds = std::max(stats_.max_event_seconds, elapsed);
  if (telemetry) publish_event(before, elapsed);
  return new_color;
}

void OnlineScheduler::on_departure(std::size_t link) {
  require(link < color_of_.size(), "OnlineScheduler: link index out of range");
  const int color = color_of_[link];
  require(color >= 0, "OnlineScheduler: departure of an inactive link");
  const bool telemetry = options_.telemetry.shard != nullptr;
  const OnlineStats before = telemetry ? stats_ : OnlineStats{};
  Stopwatch watch;
  {
    OISCHED_TRACE_SPAN(options_.telemetry.trace, "accumulator_update");
    IncrementalGainClass& cls = classes_[static_cast<std::size_t>(color)];
    const std::size_t rebuilds_before = cls.removal_rebuilds();
    cls.remove(link);
    stats_.removal_rebuilds += cls.removal_rebuilds() - rebuilds_before;
  }
  color_of_[link] = -1;
  --active_count_;
  ++stats_.departures;
  {
    OISCHED_TRACE_SPAN(options_.telemetry.trace, "compaction");
    compact_from(static_cast<std::size_t>(color));
  }
  sync_farfield_stats();
  const double elapsed = watch.elapsed_seconds();
  stats_.total_event_seconds += elapsed;
  stats_.max_event_seconds = std::max(stats_.max_event_seconds, elapsed);
  if (telemetry) publish_event(before, elapsed);
}

void OnlineScheduler::compact_from(std::size_t color) {
  // Drop the shrunken class outright when the departure emptied it.
  if (classes_[color].size() == 0) {
    classes_.erase(classes_.begin() + static_cast<std::ptrdiff_t>(color));
    ++stats_.classes_closed;
    for (int& c : color_of_) {
      if (c > static_cast<int>(color)) --c;
    }
  }
  if (!options_.compact_on_departure) return;
  // Opportunistic compaction: migrate members of the trailing class into
  // earlier classes; when the trailing class drains completely the color
  // count shrinks, and the now-trailing class gets the same chance. An
  // immovable member is skipped (and counted), not pass-ending — partial
  // compaction still reclaims the slots of the movable members behind it.
  while (!classes_.empty()) {
    const std::size_t last = classes_.size() - 1;
    if (last == 0) break;  // a single class has nowhere to migrate to
    const std::vector<std::size_t> members = classes_[last].members();
    for (const std::size_t m : members) {
      bool moved = false;
      for (std::size_t c = 0; c < last; ++c) {
        if (classes_[c].can_add(m)) {
          const std::size_t rebuilds_before = classes_[last].removal_rebuilds();
          classes_[last].remove(m);
          stats_.removal_rebuilds += classes_[last].removal_rebuilds() - rebuilds_before;
          classes_[c].add(m);
          color_of_[m] = static_cast<int>(c);
          ++stats_.migrations;
          moved = true;
          break;
        }
      }
      if (!moved) ++stats_.compaction_skips;
    }
    // Immovable members keep the trailing class (and the pass ends); a
    // fully drained class frees its color and the next one gets a turn.
    if (classes_[last].size() > 0) break;
    classes_.pop_back();
    ++stats_.classes_closed;
  }
}

void OnlineScheduler::apply(const ChurnEvent& event) {
  switch (event.kind) {
    case ChurnEvent::Kind::arrival:
      (void)on_arrival(event.link);
      break;
    case ChurnEvent::Kind::departure:
      on_departure(event.link);
      break;
    case ChurnEvent::Kind::link_arrival:
      require(event.link == universe(),
              "OnlineScheduler: fresh link index must extend the universe");
      (void)on_link_arrival(event.request);
      break;
    case ChurnEvent::Kind::link_update:
      (void)on_link_update(event.link, event.request);
      break;
  }
}

Schedule OnlineScheduler::snapshot() const {
  Schedule schedule;
  schedule.color_of = color_of_;
  schedule.num_colors = num_colors();
  return schedule;
}

bool OnlineScheduler::validate_against_direct(double* worst_margin) const {
  double min_margin = std::numeric_limits<double>::infinity();
  std::size_t members_seen = 0;
  for (std::size_t c = 0; c < classes_.size(); ++c) {
    const std::vector<std::size_t>& members = classes_[c].members();
    ensure(!members.empty(), "OnlineScheduler: compaction must drop empty classes");
    members_seen += members.size();
    for (const std::size_t m : members) {
      ensure(color_of_[m] == static_cast<int>(c),
             "OnlineScheduler: class membership and coloring diverged");
    }
    // The matrix's own request copy covers links appended after
    // construction; for a fixed universe it equals the instance's.
    const FeasibilityReport direct = check_feasible(instance_.metric(),
                                                    gains_->requests(), powers_, members,
                                                    params_, variant_);
    const FeasibilityReport tabled = check_feasible(*gains_, members, params_);
    // Bit-for-bit agreement of the two engines, and actual feasibility.
    if (direct.feasible != tabled.feasible ||
        direct.worst_margin != tabled.worst_margin ||
        direct.worst_request != tabled.worst_request || !direct.feasible) {
      return false;
    }
    min_margin = std::min(min_margin, direct.worst_margin);
  }
  ensure(members_seen == active_count_,
         "OnlineScheduler: active count and class sizes diverged");
  if (worst_margin != nullptr) *worst_margin = min_margin;
  return true;
}

void register_gain_metrics(obs::MetricsRegistry& registry,
                           const OnlineScheduler& scheduler, std::string labels) {
  const obs::MetricId resident =
      registry.gauge("oisched_gain_resident_doubles",
                     "Gain-table entries resident in memory", std::move(labels));
  registry.add_collector([&scheduler, resident](obs::MetricsShard& sink) {
    sink.set(resident, static_cast<double>(scheduler.gains().resident_doubles()));
  });
}

ReplayResult replay_trace(OnlineScheduler& scheduler, const ChurnTrace& trace,
                          bool validate_final) {
  require(trace.universe == scheduler.universe(),
          "replay_trace: trace universe must match the scheduler's");
  ReplayResult result;
  const OnlineStats before = scheduler.stats();
  Stopwatch watch;
  for (const ChurnEvent& event : trace.events) {
    scheduler.apply(event);
  }
  result.wall_seconds = watch.elapsed_seconds();
  // Counters are reported per replay, so reusing one scheduler across
  // several traces stays internally consistent; peak_colors and
  // max_event_seconds remain lifetime highs (they cannot be differenced).
  result.stats = scheduler.stats();
  result.stats.arrivals -= before.arrivals;
  result.stats.departures -= before.departures;
  result.stats.fresh_links -= before.fresh_links;
  result.stats.link_updates -= before.link_updates;
  result.stats.update_migrations -= before.update_migrations;
  result.stats.classes_opened -= before.classes_opened;
  result.stats.classes_closed -= before.classes_closed;
  result.stats.migrations -= before.migrations;
  result.stats.compaction_skips -= before.compaction_skips;
  result.stats.removal_rebuilds -= before.removal_rebuilds;
  result.stats.bound_hits -= before.bound_hits;
  result.stats.exact_fallbacks -= before.exact_fallbacks;
  result.stats.total_event_seconds -= before.total_event_seconds;
  result.events_per_sec =
      result.wall_seconds > 0.0
          ? static_cast<double>(trace.events.size()) / result.wall_seconds
          : 0.0;
  result.final_schedule = scheduler.snapshot();
  result.final_colors = scheduler.num_colors();
  result.final_active = scheduler.active_count();
  result.final_universe = scheduler.universe();
  if (validate_final) {
    result.validated = scheduler.validate_against_direct(&result.final_worst_margin);
  }
  return result;
}

}  // namespace oisched
