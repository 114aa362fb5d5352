// Link-churn event traces: the workloads of the online scheduling subsystem.
//
// A ChurnTrace is a time-ordered stream of events over a universe of links
// (the requests of one Instance, indexed 0..n-1). Besides arrival and
// departure of known links, a trace may GROW the universe: a link_arrival
// event introduces a brand-new link (its endpoints are metric node ids)
// that immediately becomes active and takes the next free index — the
// regime the paper's oblivious power assignments make sound, since a fresh
// link's power depends only on its own length. A trace may also MOVE a
// link: a link_update event re-points an active link's endpoints at other
// metric nodes (endpoint motion), which the replay side turns into an
// in-place gain row/column refresh. The generators cover the regimes the
// dynamic benchmarks exercise: Poisson arrivals with exponential holding
// times (steady churn), flash crowds (correlated bursts), adversarial
// insert-then-delete chains (maximum recoloring pressure on a first-fit
// maintainer), hotspot churn confined to a small window of a huge universe,
// growing traces that interleave churn with fresh-link introductions (the
// workload of a dense table grown in place), and three
// mobility regimes — random-waypoint wandering, commuter oscillation
// between home and work anchors, and flash-mob drift toward a shared
// hotspot — that interleave churn with endpoint motion. All generators are
// deterministic given an Rng, independent of thread count or call site,
// and traces serialize to JSON (schema "oisched-trace/3"; "/1" and "/2"
// documents remain readable) for scripted replay via
// `schedule_tool replay --trace`.
#ifndef OISCHED_GEN_CHURN_H
#define OISCHED_GEN_CHURN_H

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "sinr/model.h"
#include "util/expected.h"
#include "util/json_writer.h"
#include "util/rng.h"

namespace oisched {

class MetricSpace;

struct ChurnEvent {
  enum class Kind { arrival, departure, link_arrival, link_update };

  Kind kind = Kind::arrival;
  std::size_t link = 0;  // request index into the instance the trace targets
  double time = 0.0;
  /// link_arrival and link_update only: the link's endpoints (metric node
  /// ids). For a link_arrival, `link` is the index the new link receives
  /// and must equal the universe size at that point in the stream; for a
  /// link_update, `link` must be active and `request` holds its NEW
  /// endpoints (the replay side refreshes its gain row/column in place).
  Request request{};

  friend bool operator==(const ChurnEvent&, const ChurnEvent&) = default;
};

/// A validated event stream: times are non-decreasing, every known link
/// alternates arrival/departure starting from inactive, fresh links extend
/// the universe one index at a time (arriving active), and updates only
/// ever target currently active links.
struct ChurnTrace {
  std::size_t universe = 0;  // INITIAL universe; link_arrival events grow it
  std::vector<ChurnEvent> events;

  friend bool operator==(const ChurnTrace&, const ChurnTrace&) = default;

  /// Throws PreconditionError when the stream is inconsistent (link out of
  /// range, time running backwards, double arrival, departure of an
  /// inactive link, fresh link not taking the next index).
  void validate() const;

  /// Universe size after the last event (initial + fresh links).
  [[nodiscard]] std::size_t final_universe() const;

  /// True when the trace contains link_arrival (universe-growing) events.
  [[nodiscard]] bool has_fresh_links() const;

  /// True when the trace contains link_update (endpoint-motion) events.
  [[nodiscard]] bool has_link_updates() const;

  /// Links still active after the last event, in increasing index order.
  [[nodiscard]] std::vector<std::size_t> final_active() const;

  /// Largest number of simultaneously active links over the stream.
  [[nodiscard]] std::size_t peak_active() const;
};

struct PoissonChurnOptions {
  double arrival_rate = 4.0;       // expected arrivals per unit time
  double mean_holding_time = 8.0;  // expected lifetime of an arrived link
  std::size_t max_events = 1024;   // trace length (arrivals + departures)
};

/// Steady-state churn: arrivals form a Poisson process over the inactive
/// links, each arrival holds for an exponential duration. When every link
/// is active, the stream idles until the next departure.
[[nodiscard]] ChurnTrace poisson_trace(std::size_t universe,
                                       const PoissonChurnOptions& options, Rng& rng);

struct FlashCrowdOptions {
  std::size_t bursts = 8;          // number of crowd spikes
  std::size_t burst_size = 0;      // links per spike (0 = universe / 4)
  double burst_spacing = 32.0;     // time between spike fronts
  double burst_width = 1.0;        // arrivals spread uniformly over this window
  double mean_holding_time = 8.0;  // exponential lifetime after arrival
};

/// Correlated load spikes: every `burst_spacing` time units a crowd of
/// links arrives nearly at once and drains away exponentially.
[[nodiscard]] ChurnTrace flash_crowd_trace(std::size_t universe,
                                           const FlashCrowdOptions& options, Rng& rng);

struct AdversarialChurnOptions {
  std::size_t rounds = 0;        // insert-then-delete rounds (0 = universe / 2)
  std::size_t chain_length = 8;  // links inserted per round
};

/// Insert-then-delete chains: each round inserts `chain_length` links and
/// immediately deletes all but the last, which stays forever. The residue
/// accumulates, so every later round first-fits against an ever more
/// fragmented coloring — the worst case for incremental maintenance.
[[nodiscard]] ChurnTrace adversarial_chain_trace(std::size_t universe,
                                                 const AdversarialChurnOptions& options,
                                                 Rng& rng);

struct HotspotChurnOptions {
  std::size_t window = 0;          // links drawn from [0, window); 0 = min(n, 128)
  double arrival_rate = 0.0;       // 0 = window / (2 * mean_holding_time)
  double mean_holding_time = 8.0;  // exponential lifetime of an arrived link
  std::size_t max_events = 0;      // 0 = 8 * window
};

/// Poisson churn confined to a small window of a huge universe — the
/// large-scale locally-active regime of distributed SIR-aware scheduling,
/// where only the window's rows are ever read.
[[nodiscard]] ChurnTrace hotspot_trace(std::size_t universe,
                                       const HotspotChurnOptions& options, Rng& rng);

struct GrowingChurnOptions {
  double arrival_rate = 0.0;       // 0 = final universe / (2 * mean_holding_time)
  double mean_holding_time = 8.0;  // exponential lifetime of an arrived link
  /// Total event budget (0 = 16 * final universe). Must exceed the
  /// fresh-link pool — every fresh link is introduced, always.
  std::size_t max_events = 0;
};

/// Poisson churn over a universe that grows: the fresh links are introduced
/// (active, taking indices initial_universe, initial_universe + 1, ...)
/// evenly across the event budget, join the churn pool, and depart like any
/// other link — the workload of a scheduler-owned dense table grown in
/// place (OnlineScheduler::on_link_arrival). Throws PreconditionError
/// when max_events is too small to introduce the whole pool.
[[nodiscard]] ChurnTrace growing_trace(std::size_t initial_universe,
                                       std::span<const Request> fresh_links,
                                       const GrowingChurnOptions& options, Rng& rng);

struct WaypointMobilityOptions {
  double arrival_rate = 0.0;       // 0 = universe / (2 * mean_holding_time)
  double mean_holding_time = 8.0;  // exponential lifetime of an arrived link
  double move_rate = 0.0;          // motion events per unit time; 0 = universe / 2
  double step_fraction = 0.35;     // fraction of the remaining distance per step
  std::size_t max_events = 0;      // trace length (0 = 16 * universe)
};

/// Random-waypoint mobility over Poisson churn: links arrive and depart as
/// in poisson_trace, and a third Poisson stream of motion events picks a
/// random active link and steps both its endpoints toward a per-link
/// waypoint pair (redrawn once reached), emitting a link_update with the
/// new endpoints. Motion is metric-only geodesic interpolation — the
/// stepped endpoint is the node whose distances best split the from/target
/// geodesic — and moved endpoints always stay at distinct positions, the
/// invariant the gain tables require.
[[nodiscard]] ChurnTrace waypoint_trace(const MetricSpace& metric,
                                        std::span<const Request> requests,
                                        const WaypointMobilityOptions& options, Rng& rng);

struct CommuterMobilityOptions {
  std::size_t rounds = 12;      // motion rounds after the initial arrivals
  double step_fraction = 0.5;   // fraction of the remaining distance per step
  std::size_t max_events = 0;   // trace length (0 = universe * (1 + rounds))
};

/// Commuter flows: every link arrives near t = 0, then oscillates between
/// its home endpoints (the initial positions) and a per-link work anchor —
/// a pure-motion regime (no departures) where each round updates the links
/// in a freshly shuffled order. Links that reach one anchor turn around
/// and head for the other.
[[nodiscard]] ChurnTrace commuter_trace(const MetricSpace& metric,
                                        std::span<const Request> requests,
                                        const CommuterMobilityOptions& options, Rng& rng);

struct FlashMobOptions {
  std::size_t mobs = 3;            // drift-in / drift-out cycles
  std::size_t crowd = 0;           // links drifting per mob (0 = universe / 4)
  std::size_t drift_steps = 3;     // motion rounds toward the hotspot and back
  std::size_t churn_links = 0;     // departures+re-arrivals between mobs (0 = universe / 8)
  double step_fraction = 0.5;      // fraction of the remaining distance per step
  std::size_t max_events = 0;      // trace length cap (0 = 16 * universe)
};

/// Flash-mob drift: after all links arrive, each mob picks a hotspot node
/// and a random crowd of links that drift toward it over a few rounds,
/// linger, and drift back home, with a sprinkle of departures and
/// re-arrivals between mobs — correlated motion that concentrates
/// interference the way flash crowds concentrate load.
[[nodiscard]] ChurnTrace flash_mob_trace(const MetricSpace& metric,
                                         std::span<const Request> requests,
                                         const FlashMobOptions& options, Rng& rng);

/// Dispatches over the generator kinds by name ("poisson" | "flash" |
/// "adversarial" | "hotspot" | "growing" | "waypoint" | "commuter" |
/// "flashmob") — the single registry the CLI, the benchmark harness and
/// the tests share. target_events sizes the stream (0 picks a default
/// proportional to the universe — or the window for hotspot; the generator
/// defaults otherwise); the Poisson arrival rate scales with the universe
/// so steady state keeps ~half the links active. "growing" requires a
/// non-empty fresh_links pool (the requests the universe will grow by).
/// The mobility kinds (waypoint/commuter/flashmob) require the metric and
/// the universe's initial requests — endpoint motion needs the geometry;
/// the other kinds ignore both. Throws PreconditionError on an unknown
/// kind or missing mobility inputs.
[[nodiscard]] ChurnTrace make_churn_trace(const std::string& kind, std::size_t universe,
                                          std::size_t target_events, Rng& rng,
                                          std::span<const Request> fresh_links = {},
                                          const MetricSpace* metric = nullptr,
                                          std::span<const Request> initial_requests = {});

/// JSON document for a trace (schema "oisched-trace/3"):
///   {"schema": "oisched-trace/3", "universe": 256,
///    "events": [{"t": 0.25, "kind": "arrival", "link": 3},
///               {"t": 2.5, "kind": "link_arrival", "link": 256,
///                "u": 12, "v": 13},
///               {"t": 3.5, "kind": "link_update", "link": 3,
///                "u": 40, "v": 41}, ...]}
[[nodiscard]] JsonValue trace_to_json(const ChurnTrace& trace);

/// Parses a trace document — schema "oisched-trace/3", the churn-only
/// "oisched-trace/2", or the legacy fixed-universe "oisched-trace/1";
/// throws PreconditionError on schema mismatch, a malformed record
/// (missing or negative endpoints, unknown kind, an event kind newer than
/// the document's schema) or an invalid stream (the result is
/// validate()d).
[[nodiscard]] ChurnTrace trace_from_json(const JsonValue& document);

/// File convenience wrappers around the JSON form.
void save_trace(const std::string& path, const ChurnTrace& trace);
[[nodiscard]] ChurnTrace load_trace(const std::string& path);

/// Non-throwing load for the boundary layers (CLI, service): a missing
/// file, malformed JSON or invalid stream comes back as a structured
/// message instead of an exception.
[[nodiscard]] Expected<ChurnTrace> try_load_trace(const std::string& path);

}  // namespace oisched

#endif  // OISCHED_GEN_CHURN_H
