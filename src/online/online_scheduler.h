// Online scheduling: incremental maintenance of a valid coloring under a
// stream of link arrivals and departures — and, with a fresh_power rule,
// under universe growth; with the mobility option, under endpoint motion
// too (link_update events refresh the moved link's gain
// row/column in place and re-validate its class).
//
// The paper's oblivious power assignments are exactly the regime where the
// request set is NOT known in advance — a power depends only on a link's
// own length, so links can come and go (and brand-new links can appear)
// without re-deriving anything global. OnlineScheduler exploits that: it
// obtains the gain tables for the link universe once (via the per-Instance
// cache, or a matrix of its own when the universe may grow or move),
// then serves each arrival with a first-fit scan over IncrementalGainClass
// accumulators (O(colors * class size) table lookups, no distance or pow
// work), each fresh link with an O(n) table append plus the same first-fit
// placement, and each departure with an O(n) class shrink plus an
// opportunistic compaction pass that migrates members out of the last
// class when earlier ones can absorb them. With the farfield option the
// per-class feasibility tests consult spatial-cell interference bounds
// first (sinr/farfield.h) and touch the gain row only on a fallback.
// Throughput (events/sec),
// recolorings and per-event latency are the headline metrics; replay_trace
// drives a whole ChurnTrace and reports them. The final state re-validates
// bit-for-bit against the direct metric-recomputing feasibility engine
// (validate_against_direct), which is what the dynamic benchmark family
// and the tests gate on.
#ifndef OISCHED_ONLINE_ONLINE_SCHEDULER_H
#define OISCHED_ONLINE_ONLINE_SCHEDULER_H

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "core/instance.h"
#include "core/power_assignment.h"
#include "core/schedule.h"
#include "gen/churn.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sinr/farfield.h"
#include "sinr/gain_matrix.h"

namespace oisched {

/// Registered metric ids for one scheduler's telemetry series. Ids are
/// registry-wide, so one set per label set (e.g. per service shard) is
/// shared by however many shards write them.
struct OnlineMetricIds {
  obs::MetricId events = 0;
  obs::MetricId event_latency = 0;
  obs::MetricId arrivals = 0;
  obs::MetricId departures = 0;
  obs::MetricId link_updates = 0;
  obs::MetricId fresh_links = 0;
  obs::MetricId update_migrations = 0;
  obs::MetricId migrations = 0;
  obs::MetricId compaction_skips = 0;
  obs::MetricId removal_rebuilds = 0;
  obs::MetricId bound_hits = 0;
  obs::MetricId exact_fallbacks = 0;
  obs::MetricId classes_opened = 0;
  obs::MetricId classes_closed = 0;
  obs::MetricId colors = 0;
  obs::MetricId active_links = 0;

  /// Registers the standard `oisched_*` series (see README
  /// "Observability") under one label set and returns their ids.
  [[nodiscard]] static OnlineMetricIds register_in(obs::MetricsRegistry& registry,
                                                   std::string labels = "");
};

/// Telemetry sinks for one scheduler: a single-writer metrics shard plus
/// (optionally) a trace track for per-event phase spans. Both null by
/// default — the hot path then skips instrumentation entirely.
struct OnlineTelemetry {
  obs::MetricsShard* shard = nullptr;
  OnlineMetricIds ids;
  obs::TraceTrack* trace = nullptr;
};

struct OnlineSchedulerOptions {
  /// How classes restore their accumulators on departure. The default
  /// (exact) removes in O(n) with zero rounding error — expansion
  /// accumulators keep every class bit-identical to a freshly built one
  /// over its survivors, with no replays at all. rebuild is the
  /// historical O(|class| * n) replay-on-remove (same guarantee, paid for
  /// on every departure); compensated trades exactness for a
  /// drift-bounded O(n) subtract.
  RemovePolicy remove_policy = RemovePolicy::exact;
  /// Forced-rebuild interval of the compensated policy (see
  /// IncrementalGainClass).
  std::size_t rebuild_interval = 16;
  /// After a departure, try to dissolve the trailing class by migrating its
  /// members into earlier classes — keeps the color count tight under
  /// churn at the cost of recolorings (counted in stats().migrations).
  /// Immovable members are skipped, not pass-ending: the rest of the class
  /// still gets its chance to move (skips land in
  /// stats().compaction_skips).
  bool compact_on_departure = true;
  /// Gain-table backend. dense serves a fixed universe from the instance's
  /// shared cache unless the scheduler must own its matrix (mobility or a
  /// fresh_power rule); computed gives the scheduler its own tableless
  /// matrix, for universes too large for n^2 doubles.
  GainBackend storage = GainBackend::dense;
  /// Accept link_update (endpoint motion) events: gives the scheduler a
  /// privately owned gain matrix — the instance's shared gain cache must
  /// never mutate — whose row/column for a moved link is refreshed in
  /// place. A scheduler that owns its matrix for another reason (a
  /// fresh_power rule, the computed backend) accepts motion too.
  bool mobility = false;
  /// Oblivious power rule for fresh links (required to accept
  /// link_arrival events, which also need the dense backend): a new link's
  /// power is derived from its own length alone, never from the rest of
  /// the request set, so the scheduler's own dense table grows in place. A
  /// moved link is re-powered by the same rule (its length changed);
  /// without one it keeps its original power.
  std::shared_ptr<const PowerAssignment> fresh_power;
  /// Far-field mode: build a FarFieldContext over the instance's Euclidean
  /// metric and hand it to every color class, so feasibility tests are
  /// answered from per-cell interference bounds and fall back to an exact
  /// row reconstruction only when the bounds straddle the SINR threshold.
  /// Decisions (and hence schedules) stay bit-identical to the exact-only
  /// path. Requires RemovePolicy::exact and a Euclidean metric.
  bool farfield = false;
  /// Grid shape of far-field mode (ignored unless farfield is set).
  FarFieldOptions farfield_options;
  /// Metric/trace sinks (see OnlineTelemetry); both null by default. The
  /// shard and track must outlive the scheduler.
  OnlineTelemetry telemetry;
};

/// Counters and timings over the scheduler's lifetime.
struct OnlineStats {
  std::size_t arrivals = 0;
  std::size_t departures = 0;
  /// Of the arrivals, how many were fresh links growing the universe.
  std::size_t fresh_links = 0;
  /// Endpoint-motion events applied in place.
  std::size_t link_updates = 0;
  /// Of the link updates, how many broke the moved link's class and
  /// forced a first-fit re-placement.
  std::size_t update_migrations = 0;
  std::size_t classes_opened = 0;
  std::size_t classes_closed = 0;
  /// Links recolored by compaction (beyond their original placement).
  std::size_t migrations = 0;
  /// Immovable members compaction skipped over (the pass continues past
  /// them, so partial compaction still reclaims slots).
  std::size_t compaction_skips = 0;
  /// Full O(|class| * n) accumulator replays that removals (departures
  /// and compaction migrations) triggered — what the exact policy
  /// eliminates: always 0 there, one per removal under rebuild,
  /// drift/interval-triggered under compensated.
  std::size_t removal_rebuilds = 0;
  /// Far-field mode only: feasibility tests certified from the per-cell
  /// interference bounds alone / tests that had to reconstruct an exact
  /// row sum because the bounds straddled the threshold. Mirrors of the
  /// FarFieldContext counters, refreshed after every event.
  std::size_t bound_hits = 0;
  std::size_t exact_fallbacks = 0;
  int peak_colors = 0;
  double total_event_seconds = 0.0;
  double max_event_seconds = 0.0;

  [[nodiscard]] std::size_t events() const noexcept {
    return arrivals + departures + link_updates;
  }
};

class OnlineScheduler {
 public:
  /// The instance seeds the link universe; traces address links by request
  /// index. Powers/params/variant are fixed for the scheduler's lifetime —
  /// oblivious assignments make that sound, since a link's power never
  /// depends on who else is active. A dense scheduler without mobility or a
  /// fresh_power rule takes its gain tables from the instance's shared
  /// cache, so repeated replays (and offline algorithms on the same
  /// instance) pay the build once; otherwise it builds a private matrix,
  /// and on_link_arrival grows it past the instance (fresh endpoints must
  /// be nodes of the instance's metric).
  OnlineScheduler(const Instance& instance, std::span<const double> powers,
                  const SinrParams& params, Variant variant,
                  OnlineSchedulerOptions options = {});

  /// Activates a link (must be inactive): first-fits it into the existing
  /// classes, opening a new one when none is feasible. Returns its color.
  int on_arrival(std::size_t link);

  /// Grows the universe by one brand-new link (dense backend with a
  /// fresh_power rule only): derives its oblivious power from its own
  /// length, appends its gain row/column in amortized O(n), and places it
  /// like any arrival. Returns its color; the link owns index universe() - 1
  /// afterwards.
  int on_link_arrival(const Request& request);

  /// Moves an active link to new endpoints (only when the scheduler owns its
  /// matrix — see OnlineSchedulerOptions::mobility): re-derives its
  /// oblivious power from the new length (when a fresh_power rule is set),
  /// refreshes its gain row/column in place, updates every class's
  /// accumulators exactly, and re-validates the moved link's class — when
  /// motion broke it, the link is evicted and re-placed first-fit (counted
  /// in stats().update_migrations). Only the moved link's own class can
  /// break: everywhere else the stale contribution is simply replaced.
  /// Returns the link's (possibly new) color.
  int on_link_update(std::size_t link, const Request& request);

  /// Deactivates a link (must be active), compacting classes per options.
  void on_departure(std::size_t link);

  /// Dispatches one trace event to on_arrival/on_link_arrival/
  /// on_link_update/on_departure.
  void apply(const ChurnEvent& event);

  [[nodiscard]] int color_of(std::size_t link) const;
  [[nodiscard]] bool is_active(std::size_t link) const { return color_of(link) >= 0; }
  [[nodiscard]] std::size_t active_count() const noexcept { return active_count_; }
  /// Current number of links (instance size plus fresh links so far).
  [[nodiscard]] std::size_t universe() const noexcept { return color_of_.size(); }
  [[nodiscard]] int num_colors() const noexcept {
    return static_cast<int>(classes_.size());
  }
  [[nodiscard]] const OnlineStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const Instance& instance() const noexcept { return instance_; }
  [[nodiscard]] const GainMatrix& gains() const noexcept { return *gains_; }
  [[nodiscard]] std::span<const double> powers() const noexcept { return powers_; }
  /// The live color classes (classes()[c] holds the links colored c) —
  /// read-only access for the exactness suites, which compare live
  /// accumulators bit for bit against freshly built twins.
  [[nodiscard]] const std::vector<IncrementalGainClass>& classes() const noexcept {
    return classes_;
  }
  /// The far-field context (null unless options.farfield).
  [[nodiscard]] const FarFieldContext* farfield() const noexcept {
    return farfield_.get();
  }

  /// The current coloring: -1 for inactive links, colors dense in
  /// [0, num_colors) otherwise.
  [[nodiscard]] Schedule snapshot() const;

  /// Re-checks every class from scratch with BOTH engines — the direct
  /// metric-recomputing checker and the gain tables — and demands
  /// bit-for-bit agreement (verdict, worst margin, worst request) plus
  /// feasibility of every class. This is the online subsystem's exactness
  /// gate; `worst_margin` (optional) receives the minimum class margin.
  [[nodiscard]] bool validate_against_direct(double* worst_margin = nullptr) const;

 private:
  int place(std::size_t link);           // first-fit; returns the color used
  void compact_from(std::size_t color);  // drop empty / migrate per options
  /// Mirrors the far-field context's counters into stats_ (no-op without
  /// a context). Called at the end of every event handler.
  void sync_farfield_stats();
  /// Publishes one event's worth of counter deltas (stats_ minus the
  /// handler-entry copy), the latency observation, and the colors/active
  /// gauges into the telemetry shard. Called only when a shard is set.
  void publish_event(const OnlineStats& before, double elapsed_seconds);

  const Instance& instance_;
  std::vector<double> powers_;
  SinrParams params_;
  Variant variant_;
  OnlineSchedulerOptions options_;
  /// Set whenever the scheduler owns its matrix (mobility, fresh_power or
  /// computed): the private mutable matrix (gains_ aliases it there).
  std::shared_ptr<GainMatrix> owned_gains_;
  std::shared_ptr<const GainMatrix> gains_;
  /// Far-field geometry/counters shared by every class (farfield option).
  std::shared_ptr<FarFieldContext> farfield_;
  std::vector<IncrementalGainClass> classes_;
  std::vector<int> color_of_;
  std::size_t active_count_ = 0;
  OnlineStats stats_;
};

/// Outcome of replaying one trace through an OnlineScheduler.
struct ReplayResult {
  /// Per-replay counters (deltas over the scheduler's lifetime stats, so a
  /// reused scheduler reports each trace separately); peak_colors and
  /// max_event_seconds are lifetime highs.
  OnlineStats stats;
  double wall_seconds = 0.0;   // event loop only (excludes validation)
  double events_per_sec = 0.0;
  Schedule final_schedule;     // -1 for links inactive at the end
  int final_colors = 0;
  std::size_t final_active = 0;
  /// Universe size after the replay (grows past the trace's initial
  /// universe when it carries fresh-link events).
  std::size_t final_universe = 0;
  /// Set when validate_final: the final state passed
  /// validate_against_direct.
  bool validated = false;
  double final_worst_margin = 0.0;
};

/// Feeds every event of `trace` to `scheduler` (whose current universe
/// must match the trace's initial one) and measures throughput. With
/// validate_final the final state is re-validated bit-for-bit against the
/// direct engine.
[[nodiscard]] ReplayResult replay_trace(OnlineScheduler& scheduler,
                                        const ChurnTrace& trace,
                                        bool validate_final = true);

/// Registers a scrape-time oisched_gain_resident_doubles gauge over the
/// scheduler's gain tables (GainMatrix::resident_doubles, safe to sample
/// while the scheduler runs). The scheduler must outlive every subsequent
/// registry scrape.
void register_gain_metrics(obs::MetricsRegistry& registry,
                           const OnlineScheduler& scheduler, std::string labels = "");

}  // namespace oisched

#endif  // OISCHED_ONLINE_ONLINE_SCHEDULER_H
