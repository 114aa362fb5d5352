#include "util/experiment.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <thread>
#include <utility>

#include "core/greedy.h"
#include "core/power_assignment.h"
#include "core/schedule.h"
#include "core/sqrt_coloring.h"
#include "gen/adversarial.h"
#include "gen/churn.h"
#include "gen/generators.h"
#include "metric/euclidean.h"
#include "online/online_scheduler.h"
#include "service/scheduler_service.h"
#include "sinr/gain_matrix.h"
#include "util/error.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace oisched {
namespace {

const char* variant_name(Variant variant) {
  return variant == Variant::directed ? "directed" : "bidirectional";
}

std::unique_ptr<PowerAssignment> make_assignment(const std::string& power) {
  if (power == "uniform") return std::make_unique<UniformPower>();
  if (power == "linear") return std::make_unique<LinearPower>();
  if (power == "sqrt") return std::make_unique<SqrtPower>();
  throw PreconditionError("experiment: unknown power assignment '" + power + "'");
}

/// n sender/receiver pairs along the x-axis, senders 40 apart, lengths
/// uniform in [1, 8) — a deterministic corridor-of-links workload.
Instance line_topology(std::size_t n, Rng& rng) {
  std::vector<std::pair<double, double>> endpoints;
  endpoints.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double sender = static_cast<double>(i) * 40.0;
    endpoints.emplace_back(sender, sender + rng.uniform(1.0, 8.0));
  }
  return line_instance(endpoints);
}

/// n horizontally adjacent pairs on a regular planar grid, 10 apart.
Instance grid_topology(std::size_t n) {
  const auto per_row = static_cast<std::size_t>(
      std::ceil(std::sqrt(static_cast<double>(n))));
  std::vector<Point> points;
  std::vector<Request> requests;
  requests.reserve(n);
  for (std::size_t row = 0; requests.size() < n; ++row) {
    for (std::size_t pair = 0; pair < per_row && requests.size() < n; ++pair) {
      const double y = static_cast<double>(row) * 10.0;
      const double x = static_cast<double>(2 * pair) * 10.0;
      points.push_back(Point{x, y, 0.0});
      points.push_back(Point{x + 10.0, y, 0.0});
      requests.push_back(Request{points.size() - 2, points.size() - 1});
    }
  }
  return Instance(std::make_shared<EuclideanMetric>(std::move(points)),
                  std::move(requests));
}

/// Builds the scenario's instance; adversarial families may truncate, the
/// others produce exactly spec.n requests.
Instance build_instance(const ScenarioSpec& spec, const SinrParams& params) {
  Rng rng(spec.seed);
  if (spec.topology == "line") return line_topology(spec.n, rng);
  if (spec.topology == "grid") return grid_topology(spec.n);
  if (spec.topology == "random") return random_square(spec.n, {}, rng);
  if (spec.topology == "adversarial") {
    const auto assignment = make_assignment(spec.power);
    return theorem1_family(spec.n, *assignment, params.alpha).instance;
  }
  throw PreconditionError("experiment: unknown topology '" + spec.topology + "'");
}

/// Times one run of `algorithm` and returns (schedule, milliseconds).
template <typename Algorithm>
std::pair<Schedule, double> timed(const Algorithm& algorithm) {
  Stopwatch watch;
  Schedule schedule = algorithm();
  return {std::move(schedule), watch.elapsed_ms()};
}

/// The mobility trace kinds — they drive the dynamic-mobility family and
/// need the instance's geometry to generate endpoint motion.
bool is_mobility_trace(const std::string& kind) {
  return kind == "waypoint" || kind == "commuter" || kind == "flashmob";
}

/// The trace of a dynamic scenario: kind x universe, deterministic in the
/// seed (a distinct stream from the instance geometry's). Mobility kinds
/// additionally read the instance's metric and requests.
ChurnTrace build_trace(const ScenarioSpec& spec, std::size_t universe,
                       std::span<const Request> fresh_links = {},
                       const Instance* instance = nullptr) {
  Rng rng(spec.seed ^ 0xc2b2ae3d27d4eb4fULL);
  const MetricSpace* metric = instance == nullptr ? nullptr : &instance->metric();
  const std::span<const Request> initial =
      instance == nullptr ? std::span<const Request>{} : instance->requests();
  return make_churn_trace(spec.trace, universe, spec.trace_events, rng, fresh_links,
                          metric, initial);
}

/// The per-event latency budget of a bare dynamic cell, read off the
/// replay's own histogram (the same series the metrics JSON carries).
void record_event_latency(const obs::MetricsSnapshot& snapshot,
                          ScenarioResult& result) {
  const obs::LatencyHistogram latency =
      snapshot.histogram_total("oisched_event_latency_seconds");
  if (latency.count() == 0) return;
  result.dynamic.latency_p50_ms = latency.quantile(0.5) * 1e3;
  result.dynamic.latency_p99_ms = latency.quantile(0.99) * 1e3;
}

void record_replay(const ChurnTrace& trace, const ReplayResult& replay,
                   ScenarioResult& result) {
  result.dynamic.events = trace.events.size();
  result.dynamic.wall_ms = replay.wall_seconds * 1e3;
  result.dynamic.events_per_sec = replay.events_per_sec;
  result.dynamic.peak_colors = replay.stats.peak_colors;
  result.dynamic.final_colors = replay.final_colors;
  result.dynamic.final_active = replay.final_active;
  result.dynamic.final_universe = replay.final_universe;
  result.dynamic.fresh_links = replay.stats.fresh_links;
  result.dynamic.link_updates = replay.stats.link_updates;
  result.dynamic.update_migrations = replay.stats.update_migrations;
  result.dynamic.migrations = replay.stats.migrations;
  result.dynamic.compaction_skips = replay.stats.compaction_skips;
  result.dynamic.removal_rebuilds = replay.stats.removal_rebuilds;
  result.dynamic.classes_opened = replay.stats.classes_opened;
  result.dynamic.classes_closed = replay.stats.classes_closed;
  result.dynamic.max_event_ms = replay.stats.max_event_seconds * 1e3;
  result.valid = replay.validated;
}

/// Universe-size cap for the rebuild-twin re-replay: above it the twin's
/// O(|class| * n)-per-removal replays would cost more than the timed
/// measurement itself (the n=16384 hotspot cell would take several times
/// its own replay). Large-n policy identity is covered by the differential
/// fuzz suites in tests/test_online.cpp instead.
constexpr std::size_t kPolicyTwinMaxN = 4096;

/// The policy-equivalence gate: re-replays the trace under
/// RemovePolicy::rebuild (the historical replay-on-remove reference) and
/// compares final schedules bit for bit. Untimed — the throughput numbers
/// come from the cell's own replay.
bool rebuild_twin_agrees(const Instance& instance, std::span<const double> powers,
                         const SinrParams& params, Variant variant,
                         OnlineSchedulerOptions options, const ChurnTrace& trace,
                         const Schedule& observed) {
  options.remove_policy = RemovePolicy::rebuild;
  // The rebuild reference predates (and must not depend on) the far-field
  // layer, and the scheduler only admits far-field under the exact policy.
  options.farfield = false;
  // The twin must not write into the timed cell's single-writer metric
  // shard (its replay would double every counter).
  options.telemetry = {};
  OnlineScheduler twin(instance, powers, params, variant, std::move(options));
  const ReplayResult replay = replay_trace(twin, trace, /*validate_final=*/false);
  return replay.final_schedule.color_of == observed.color_of &&
         replay.final_schedule.num_colors == observed.num_colors;
}

/// The far-field correctness gate: re-replays the trace with the bounds
/// layer off — every feasibility test takes the exact path — and compares
/// final schedules bit for bit. Untimed; the throughput numbers come from
/// the cell's own (far-field) replay.
bool farfield_twin_agrees(const Instance& instance, std::span<const double> powers,
                          const SinrParams& params, Variant variant,
                          OnlineSchedulerOptions options, const ChurnTrace& trace,
                          const Schedule& observed) {
  options.farfield = false;
  options.telemetry = {};
  OnlineScheduler twin(instance, powers, params, variant, std::move(options));
  const ReplayResult replay = replay_trace(twin, trace, /*validate_final=*/false);
  return replay.final_schedule.color_of == observed.color_of &&
         replay.final_schedule.num_colors == observed.num_colors;
}

void record_farfield(const ReplayResult& replay, ScenarioResult& result) {
  result.dynamic.bound_hits = replay.stats.bound_hits;
  result.dynamic.exact_fallbacks = replay.stats.exact_fallbacks;
  const std::size_t tests = replay.stats.bound_hits + replay.stats.exact_fallbacks;
  result.dynamic.fallback_fraction =
      tests > 0 ? static_cast<double>(replay.stats.exact_fallbacks) /
                      static_cast<double>(tests)
                : 0.0;
}

/// Runs one dynamic-service scenario: the same trace the bare-scheduler
/// cell replays (identical seed), fed through the sharded typed-admission
/// service — saturated or open-loop paced per the spec — with the
/// bit-for-bit oracle gate (every shard vs a fresh single-thread replay of
/// its sub-trace) on top of the direct-engine revalidation.
void run_service_scenario(const ScenarioSpec& spec, const SinrParams& params,
                          const Instance& instance,
                          std::shared_ptr<const PowerAssignment> assignment,
                          GainBackend backend, ScenarioResult& result) {
  RemovePolicy policy = RemovePolicy::exact;
  require(parse_remove_policy(spec.remove_policy, policy),
          "experiment: unknown remove policy '" + spec.remove_policy + "'");
  require(spec.trace != "growing",
          "experiment: the service does not support growing traces");
  const bool mobility = is_mobility_trace(spec.trace);
  const std::vector<double> powers = assignment->assign(instance, params.alpha);
  SchedulerServiceOptions options;
  options.num_shards = spec.shards;
  options.scheduler.remove_policy = policy;
  options.scheduler.storage = backend;
  if (mobility) {
    options.scheduler.mobility = true;
    options.scheduler.fresh_power = assignment;
  }
  // Every cell scrapes its own registry into the report: the service
  // wires per-shard series itself (queue depth, latency, boundary).
  obs::MetricsRegistry registry;
  options.registry = &registry;
  const ChurnTrace trace =
      build_trace(spec, instance.size(), {}, mobility ? &instance : nullptr);
  trace.validate();
  Stopwatch build_watch;
  SchedulerService service(instance, powers, params, spec.variant, options);
  result.gain_build_ms = build_watch.elapsed_ms();
  ServiceReplayOptions replay_options;
  replay_options.arrival_rate = static_cast<double>(spec.service_rate);
  const Expected<ServiceReplayResult> replayed =
      replay_trace(service, trace, replay_options);
  if (!replayed.ok()) throw PreconditionError(replayed.error());
  const ServiceReplayResult& replay = replayed.value();
  result.metrics = registry.scrape().to_json();
  result.dynamic.events = trace.events.size();
  result.dynamic.wall_ms = replay.wall_seconds * 1e3;
  result.dynamic.events_per_sec = replay.events_per_sec;
  result.dynamic.peak_colors = replay.stats.scheduler.peak_colors;
  result.dynamic.final_colors = replay.final_colors;
  result.dynamic.final_active = replay.final_active;
  result.dynamic.final_universe = replay.final_universe;
  result.dynamic.link_updates = replay.stats.scheduler.link_updates;
  result.dynamic.update_migrations = replay.stats.scheduler.update_migrations;
  result.dynamic.migrations = replay.stats.scheduler.migrations;
  result.dynamic.compaction_skips = replay.stats.scheduler.compaction_skips;
  result.dynamic.removal_rebuilds = replay.stats.scheduler.removal_rebuilds;
  result.dynamic.classes_opened = replay.stats.scheduler.classes_opened;
  result.dynamic.classes_closed = replay.stats.scheduler.classes_closed;
  result.dynamic.max_event_ms = replay.stats.scheduler.max_event_seconds * 1e3;
  result.dynamic.shards = spec.shards;
  result.dynamic.arrival_rate = spec.service_rate;
  result.dynamic.latency_p50_ms = replay.stats.latency.p50 * 1e3;
  result.dynamic.latency_p99_ms = replay.stats.latency.p99 * 1e3;
  result.dynamic.oracle_identical = replay.oracle_identical;
  result.dynamic.boundary_refreshes = replay.stats.boundary_refreshes;
  result.dynamic.max_boundary_gain = replay.boundary.max_boundary_gain;
  result.dynamic.packable_class_pairs = replay.boundary.packable_class_pairs;
  result.valid = replay.validated && replay.stats.rejected == 0;
}

/// Runs one dynamic scenario: replay the trace through the OnlineScheduler
/// (on the cell's storage backend) and re-validate the final state
/// bit-for-bit against the direct engine. A "growing" trace starts the
/// scheduler on the first half of the instance and introduces the second
/// half as fresh links, grown into the scheduler's own dense table.
void run_dynamic_scenario(const ScenarioSpec& spec, const SinrParams& params,
                          const Instance& instance,
                          std::shared_ptr<const PowerAssignment> assignment,
                          GainBackend backend, ScenarioResult& result) {
  RemovePolicy policy = RemovePolicy::exact;
  require(parse_remove_policy(spec.remove_policy, policy),
          "experiment: unknown remove policy '" + spec.remove_policy + "'");
  if (spec.trace == "growing") {
    require(backend == GainBackend::dense,
            "experiment: growing scenarios need the dense backend");
    const std::size_t n0 = std::max<std::size_t>(1, instance.size() / 2);
    const std::span<const Request> all = instance.requests();
    const Instance base(instance.metric_ptr(),
                        std::vector<Request>(all.begin(), all.begin() + n0));
    const std::vector<double> base_powers = assignment->assign(base, params.alpha);
    const ChurnTrace trace = build_trace(spec, n0, all.subspan(n0));
    trace.validate();
    obs::MetricsRegistry registry;
    OnlineSchedulerOptions options;
    options.remove_policy = policy;
    options.fresh_power = std::move(assignment);
    options.telemetry.ids = OnlineMetricIds::register_in(registry);
    options.telemetry.shard = &registry.create_shard();
    if (spec.is_farfield()) {
      options.farfield = true;
      options.farfield_options.target_cells = spec.farfield_cells;
      // Near radius 3 per the recorded flagship sweep: radius 1 leaves
      // the adjacent far ring's distance bounds loose enough that ~25% of
      // feasibility tests straddle and fall back; radius 3 certifies >95%
      // from bounds alone at n=131072 / G=1024 across seeds.
      options.farfield_options.near_radius = 3;
    }
    Stopwatch watch;
    OnlineScheduler scheduler(base, base_powers, params, spec.variant, options);
    result.gain_build_ms = watch.elapsed_ms();
    register_gain_metrics(registry, scheduler);
    const ReplayResult replay = replay_trace(scheduler, trace, /*validate_final=*/true);
    record_replay(trace, replay, result);
    const obs::MetricsSnapshot snapshot = registry.scrape();
    record_event_latency(snapshot, result);
    result.metrics = snapshot.to_json();
    if (policy != RemovePolicy::rebuild && scheduler.universe() <= kPolicyTwinMaxN) {
      result.dynamic.policy_identical = rebuild_twin_agrees(
          base, base_powers, params, spec.variant, options, trace, replay.final_schedule);
    }
    if (spec.is_farfield()) {
      record_farfield(replay, result);
      result.dynamic.farfield_identical = farfield_twin_agrees(
          base, base_powers, params, spec.variant, options, trace, replay.final_schedule);
    }
    return;
  }
  const bool mobility = is_mobility_trace(spec.trace);
  const std::vector<double> powers = assignment->assign(instance, params.alpha);
  obs::MetricsRegistry registry;
  OnlineSchedulerOptions options;
  options.remove_policy = policy;
  options.storage = backend;
  options.telemetry.ids = OnlineMetricIds::register_in(registry);
  options.telemetry.shard = &registry.create_shard();
  if (spec.is_farfield()) {
    options.farfield = true;
    options.farfield_options.target_cells = spec.farfield_cells;
    // Near radius 3 — see the growing-branch comment above.
    options.farfield_options.near_radius = 3;
  }
  if (mobility) {
    // Endpoint motion mutates the tables, so the scheduler builds a
    // privately owned matrix — there is no shared cache to warm; time the
    // scheduler's own build instead. The moved links are re-powered by the
    // cell's oblivious assignment.
    options.mobility = true;
    options.fresh_power = assignment;
  } else if (backend != GainBackend::computed) {
    // Cold build of the shared dense tables; the replay hits the cache.
    // The computed backend has no shared tables to warm — the scheduler
    // builds its own, timed below.
    Stopwatch watch;
    (void)instance.gains(powers, params.alpha, spec.variant);
    result.gain_build_ms = watch.elapsed_ms();
  }
  Stopwatch build_watch;
  OnlineScheduler scheduler(instance, powers, params, spec.variant, options);
  if (mobility || backend == GainBackend::computed) {
    result.gain_build_ms = build_watch.elapsed_ms();
  }
  register_gain_metrics(registry, scheduler);
  const ChurnTrace trace =
      build_trace(spec, instance.size(), {}, mobility ? &instance : nullptr);
  trace.validate();
  const ReplayResult replay = replay_trace(scheduler, trace, /*validate_final=*/true);
  record_replay(trace, replay, result);
  const obs::MetricsSnapshot snapshot = registry.scrape();
  record_event_latency(snapshot, result);
  result.metrics = snapshot.to_json();
  if (policy != RemovePolicy::rebuild && instance.size() <= kPolicyTwinMaxN) {
    result.dynamic.policy_identical = rebuild_twin_agrees(
        instance, powers, params, spec.variant, options, trace, replay.final_schedule);
  }
  if (spec.is_farfield()) {
    record_farfield(replay, result);
    result.dynamic.farfield_identical = farfield_twin_agrees(
        instance, powers, params, spec.variant, options, trace, replay.final_schedule);
  }
}

bool same_schedule(const Schedule& a, const Schedule& b) {
  return a.num_colors == b.num_colors && a.color_of == b.color_of;
}

JsonValue comparison_json(const EngineComparison& comparison, bool with_incremental) {
  JsonValue value = JsonValue::object();
  value["colors"] = comparison.colors;
  value["identical"] = comparison.identical;
  value["ms_direct"] = comparison.ms_direct;
  if (with_incremental) value["ms_incremental"] = comparison.ms_incremental;
  value["ms_gain"] = comparison.ms_gain;
  value["speedup"] = comparison.speedup;
  return value;
}

JsonValue dynamic_json(const DynamicResult& dynamic, bool farfield) {
  JsonValue value = JsonValue::object();
  value["events"] = dynamic.events;
  value["wall_ms"] = dynamic.wall_ms;
  value["events_per_sec"] = dynamic.events_per_sec;
  value["peak_colors"] = dynamic.peak_colors;
  value["final_colors"] = dynamic.final_colors;
  value["final_active"] = dynamic.final_active;
  value["final_universe"] = dynamic.final_universe;
  value["fresh_links"] = dynamic.fresh_links;
  value["link_updates"] = dynamic.link_updates;
  value["update_migrations"] = dynamic.update_migrations;
  value["migrations"] = dynamic.migrations;
  value["compaction_skips"] = dynamic.compaction_skips;
  value["removal_rebuilds"] = dynamic.removal_rebuilds;
  value["policy_identical"] = dynamic.policy_identical;
  value["classes_opened"] = dynamic.classes_opened;
  value["classes_closed"] = dynamic.classes_closed;
  value["max_event_ms"] = dynamic.max_event_ms;
  // The per-event latency budget, for every dynamic cell since schema /8
  // (service cells measure submit-to-completion, bare cells the handler).
  value["latency_p50_ms"] = dynamic.latency_p50_ms;
  value["latency_p99_ms"] = dynamic.latency_p99_ms;
  if (dynamic.shards > 0) {
    value["shards"] = dynamic.shards;
    value["arrival_rate"] = dynamic.arrival_rate;  // 0 = saturated
    value["oracle_identical"] = dynamic.oracle_identical;
    value["boundary_refreshes"] = dynamic.boundary_refreshes;
    value["max_boundary_gain"] = dynamic.max_boundary_gain;
    value["packable_class_pairs"] = dynamic.packable_class_pairs;
  }
  if (farfield) {
    value["bound_hits"] = dynamic.bound_hits;
    value["exact_fallbacks"] = dynamic.exact_fallbacks;
    value["fallback_fraction"] = dynamic.fallback_fraction;
    value["farfield_identical"] = dynamic.farfield_identical;
  }
  return value;
}

}  // namespace

bool scenario_failed(const ScenarioResult& result) {
  if (!result.ok) return true;
  if (!result.valid) return true;
  if (!result.scan_identical) return true;
  if (result.spec.is_dynamic()) {
    // The far-field layer promises bit-identity with the exact-only path;
    // a divergence is a wrong answer.
    if (result.spec.is_farfield() && !result.dynamic.farfield_identical) return true;
    // A service cell additionally promises per-shard bit-identity with a
    // single-thread replay of its sub-trace — a mismatch means an event
    // was lost, duplicated or reordered, a wrong answer.
    if (result.spec.is_service() && !result.dynamic.oracle_identical) return true;
    // The exact policy promises bit-identity with the rebuild reference;
    // a divergence there is a wrong answer. Compensated is drift-bounded
    // only, so its policy_identical flag is informational.
    if (result.spec.remove_policy == "exact" && !result.dynamic.policy_identical) {
      return true;
    }
    return result.dynamic.events_per_sec <= 0.0;
  }
  if (!result.greedy.identical) return true;
  if (result.has_sqrt && !result.sqrt.identical) return true;
  return false;
}

std::string ScenarioSpec::name() const {
  const std::string base = topology + "/n" + std::to_string(n);
  std::string tail = power + "/" + std::string(variant_name(variant));
  // Dense names stay stable — so do their derived seeds and the CI gates
  // keyed on them; the computed backend is a visible suffix.
  if (!storage.empty() && storage != "dense") tail += "/" + storage;
  // Same for the scheduler-default remove policy: only deviations show.
  if (is_dynamic() && !remove_policy.empty() && remove_policy != "exact") {
    tail += "/" + remove_policy;
  }
  // A trace-event cap changes the workload, so it is part of the name
  // (and thereby the derived seed).
  if (is_dynamic() && trace_events > 0) tail += "/e" + std::to_string(trace_events);
  if (is_farfield()) {
    return "dynamic-farfield/" + base + "/" + trace + "/" + tail + "/g" +
           std::to_string(farfield_cells);
  }
  if (!is_dynamic() && scan_threads > 0) tail += "/t" + std::to_string(scan_threads);
  if (is_service()) {
    // The shard count is always visible (even s1, the service's own
    // single-shard baseline — a different code path than the bare
    // scheduler, so a different scenario); pacing only when open-loop.
    tail += "/s" + std::to_string(shards);
    if (service_rate > 0) tail += "/r" + std::to_string(service_rate);
    return "dynamic-service/" + base + "/" + trace + "/" + tail;
  }
  if (is_dynamic()) return "dynamic/" + base + "/" + trace + "/" + tail;
  return base + "/" + tail;
}

std::vector<ScenarioSpec> experiment_grid(const ExperimentOptions& options) {
  const std::vector<std::string> topologies = {"line", "grid", "random", "adversarial"};
  std::vector<ScenarioSpec> grid;
  const auto push = [&](ScenarioSpec spec) {
    if (spec.storage.empty()) spec.storage = "dense";
    if (spec.remove_policy.empty()) spec.remove_policy = options.remove_policy;
    // The Theorem-1 adversarial family lives in the directed variant.
    spec.variant =
        spec.topology == "adversarial" ? Variant::directed : Variant::bidirectional;
    // Seed derives from the scenario name (FNV-1a), not the grid index, so
    // the same scenario measures the same instance in quick and full mode
    // — the CI speedup gate then gates the recorded baseline's instance.
    // The remove policy, shard count, pacing rate, far-field cell count
    // and scan-thread count are excluded from the hash: those axes'
    // variants of one cell replay the identical instance and trace, so
    // their events/sec, latencies and final states are directly
    // comparable (and the service cells share the flagship dynamic cell's
    // workload).
    ScenarioSpec seed_key = spec;
    seed_key.remove_policy = "exact";
    seed_key.shards = 0;
    seed_key.service_rate = 0;
    seed_key.farfield_cells = 0;
    seed_key.scan_threads = 0;
    std::uint64_t hash = 1469598103934665603ULL;
    for (const char c : seed_key.name()) {
      hash = (hash ^ static_cast<unsigned char>(c)) * 1099511628211ULL;
    }
    spec.seed = options.base_seed + (hash % 1000000007ULL);
    grid.push_back(std::move(spec));
  };
  const auto add = [&](const std::string& topology, std::size_t n,
                       const std::string& power, const std::string& trace = "",
                       const std::string& storage = "",
                       const std::string& remove_policy = "", std::size_t shards = 0,
                       std::size_t service_rate = 0) {
    ScenarioSpec spec;
    spec.topology = topology;
    spec.n = n;
    spec.power = power;
    spec.trace = trace;
    spec.storage = storage;
    spec.remove_policy = remove_policy;
    spec.shards = shards;
    spec.service_rate = service_rate;
    push(std::move(spec));
  };
  /// The dynamic-farfield family: bounds-first feasibility on a spatial
  /// cell grid. Every cell caps its trace — the churn kinds' 16x-universe
  /// default is the wrong budget at these sizes, and the exact-only twin
  /// replays the whole trace a second time.
  const auto add_farfield = [&](std::size_t n, const std::string& trace,
                                const std::string& storage, std::size_t cells,
                                std::size_t events) {
    ScenarioSpec spec;
    spec.topology = "random";
    spec.n = n;
    spec.power = "sqrt";
    spec.trace = trace;
    spec.storage = storage;
    spec.farfield_cells = cells;
    spec.trace_events = events;
    push(std::move(spec));
  };
  if (options.quick) {
    for (const std::string& topology : topologies) add(topology, 32, "sqrt");
    add("random", 256, "sqrt");  // the flagship speedup scenario
    // The CI-smoke dynamic subset: the flagship churn scenario (under the
    // default exact policy AND the historical rebuild policy, same trace,
    // so CI can gate exact's throughput against rebuild's on the same
    // runner), the adversarial chain stressor and the growing-universe cell
    // (fresh links grown into a dense table in place).
    add("random", 256, "sqrt", "poisson");
    // Skipped when it would duplicate the default-policy cell above
    // (e.g. under --remove-policy rebuild).
    if (options.remove_policy != "rebuild") {
      add("random", 256, "sqrt", "poisson", "", "rebuild");
    }
    add("random", 64, "sqrt", "adversarial");
    add("random", 128, "sqrt", "growing");
    // The flagship mobility cell: endpoint motion over Poisson churn,
    // replayed through the in-place update path.
    add("random", 256, "sqrt", "waypoint");
    // The flagship service cells: the same workload as the flagship churn
    // cell (identical seed, instance and trace — shards are excluded from
    // the seed hash), saturated, through the sharded typed-admission
    // front-end at one shard (the service's own overhead baseline) and
    // four. CI gates s4's throughput against s1's on the same runner.
    add("random", 256, "sqrt", "poisson", "", "", /*shards=*/1);
    add("random", 256, "sqrt", "poisson", "", "", /*shards=*/4);
    // The parallel candidate-scan cell: the flagship static scenario with
    // the first-fit sweep fanned across four workers, gated bit for bit
    // against its own sequential run.
    {
      ScenarioSpec scan;
      scan.topology = "random";
      scan.n = 256;
      scan.power = "sqrt";
      scan.scan_threads = 4;
      push(std::move(scan));
    }
    // The flagship far-field cell: n = 131072 Poisson churn over the
    // tableless backend (a dense table would need ~137 GiB), G = 1024
    // spatial cells. CI gates its fallback fraction below 0.1 and its
    // farfield_identical bit — the "schedule 10^5 links by scanning <10%
    // of each row" claim, recorded.
    add_farfield(131072, "poisson", "computed", /*cells=*/1024, /*events=*/4000);
    return grid;
  }
  for (const std::string& topology : topologies) {
    for (const std::size_t n : {std::size_t{64}, std::size_t{256}}) {
      for (const char* power : {"uniform", "linear", "sqrt"}) {
        add(topology, n, power);
      }
    }
  }
  add("random", 512, "sqrt");
  for (const char* trace : {"poisson", "flash", "adversarial"}) {
    for (const std::size_t n : {std::size_t{64}, std::size_t{256}}) {
      add("random", n, "sqrt", trace);
    }
  }
  // The dynamic-mobility family: the three motion regimes at both sweep
  // sizes, each replayed through the in-place update path.
  for (const char* trace : {"waypoint", "commuter", "flashmob"}) {
    for (const std::size_t n : {std::size_t{64}, std::size_t{256}}) {
      add("random", n, "sqrt", trace);
    }
  }
  // The growing universe (fresh links grown into a dense table in place)
  // and the flagship mobility cell on the tableless backend (in-place
  // motion exercised on both storage layouts).
  add("random", 512, "sqrt", "growing");
  add("random", 256, "sqrt", "waypoint", "computed");
  // The large, locally active universe: hotspot churn over n = 16384 links
  // on the tableless backend (a dense pair would need ~4 GiB).
  add("random", 16384, "sqrt", "hotspot", "computed");
  // The remove-policy axis on the flagship churn cell: the same instance
  // and trace under all three accumulator policies — the recorded
  // evidence that exact removal costs nothing against the rebuild
  // baseline it replaces. Pinned cells that would duplicate the default
  // flagship cell (under a non-exact --remove-policy) are skipped.
  if (options.remove_policy != "rebuild") {
    add("random", 256, "sqrt", "poisson", "", "rebuild");
  }
  if (options.remove_policy != "compensated") {
    add("random", 256, "sqrt", "poisson", "", "compensated");
  }
  // The dynamic-service saturation sweep: the flagship churn workload
  // through the sharded admission service. One axis scales the shard
  // count saturated (events/sec should grow — each admission scans only
  // its own shard's classes); the other paces the open loop below and
  // near saturation at four shards to trace the rate -> latency curve.
  for (const std::size_t shards : {std::size_t{1}, std::size_t{2}, std::size_t{4},
                                   std::size_t{8}}) {
    add("random", 256, "sqrt", "poisson", "", "", shards);
  }
  for (const std::size_t rate : {std::size_t{20000}, std::size_t{80000}}) {
    add("random", 256, "sqrt", "poisson", "", "", /*shards=*/4, rate);
  }
  // The service also serves the mobility regime (in-place motion inside
  // each shard's private matrix) — one sharded cell pins that path.
  add("random", 256, "sqrt", "waypoint", "", "", /*shards=*/4);
  // The parallel candidate-scan cell (bit-identity gated against the
  // sequential sweep on the same instance).
  {
    ScenarioSpec scan;
    scan.topology = "random";
    scan.n = 512;
    scan.power = "sqrt";
    scan.scan_threads = 4;
    push(std::move(scan));
  }
  // The dynamic-farfield family: the policy-twin-sized cell (n = 4096 also
  // runs the rebuild reference), its mobility variant (endpoint motion as
  // a bound-refresh stressor), the mid-size tableless cell, and the
  // n = 131072 flagship the CI fallback-fraction gate keys on.
  add_farfield(4096, "poisson", "", /*cells=*/256, /*events=*/4000);
  add_farfield(4096, "waypoint", "", /*cells=*/256, /*events=*/4000);
  add_farfield(16384, "poisson", "computed", /*cells=*/512, /*events=*/6000);
  add_farfield(131072, "poisson", "computed", /*cells=*/1024, /*events=*/4000);
  return grid;
}

ScenarioResult run_scenario(const ScenarioSpec& spec, const SinrParams& params) {
  ScenarioResult result;
  result.spec = spec;
  try {
    GainBackend backend = GainBackend::dense;
    require(parse_gain_backend(spec.storage, backend),
            "experiment: unknown storage backend '" + spec.storage + "'");
    const Instance instance = build_instance(spec, params);
    result.built_n = instance.size();
    std::shared_ptr<const PowerAssignment> assignment = make_assignment(spec.power);

    if (spec.is_service()) {
      run_service_scenario(spec, params, instance, std::move(assignment), backend,
                           result);
      result.ok = true;
      return result;
    }
    if (spec.is_dynamic()) {
      run_dynamic_scenario(spec, params, instance, std::move(assignment), backend,
                           result);
      result.ok = true;
      return result;
    }

    require(backend == GainBackend::dense,
            "experiment: computed storage is a dynamic-family backend");
    const std::vector<double> powers = assignment->assign(instance, params.alpha);
    {
      // Cold build of the shared gain tables; the greedy gain-engine run
      // below then hits the per-instance cache.
      Stopwatch watch;
      (void)instance.gains(powers, params.alpha, spec.variant);
      result.gain_build_ms = watch.elapsed_ms();
    }

    const auto greedy_with = [&](FeasibilityEngine engine) {
      return timed([&] {
        return greedy_coloring(instance, powers, params, spec.variant,
                               RequestOrder::longest_first, engine);
      });
    };
    const auto [direct, ms_direct] = greedy_with(FeasibilityEngine::direct);
    const auto [incremental, ms_incremental] = greedy_with(FeasibilityEngine::incremental);
    const auto [gain, ms_gain] = greedy_with(FeasibilityEngine::gain_matrix);
    result.greedy.colors = gain.num_colors;
    result.greedy.identical = same_schedule(direct, gain) && same_schedule(incremental, gain);
    result.greedy.ms_direct = ms_direct;
    result.greedy.ms_incremental = ms_incremental;
    result.greedy.ms_gain = ms_gain;
    result.greedy.speedup = ms_gain > 0.0 ? ms_direct / ms_gain : 0.0;

    result.valid = validate_schedule(instance, powers, gain, params, spec.variant).valid;

    if (spec.scan_threads > 0) {
      // The parallel-scan gate: first-fit with the candidate scan fanned
      // across workers commits to the same lowest-index class as the
      // sequential sweep, so the schedule must come back bit for bit.
      const auto [scan_schedule, scan_ms] = timed([&] {
        return greedy_coloring(instance, powers, params, spec.variant,
                               RequestOrder::longest_first, FeasibilityEngine::gain_matrix,
                               RemovePolicy::rebuild, spec.scan_threads);
      });
      result.scan_ms = scan_ms;
      result.scan_identical = same_schedule(gain, scan_schedule);
    }

    if (spec.power == "sqrt") {
      // The sqrt LP also budgets interference at senders, which is a
      // different cache key (with_sender_gains) — warm it outside the timed
      // region so the direct-vs-gain sqrt comparison measures queries, not
      // a table build the greedy comparison no longer pays either.
      (void)instance.gains(powers, params.alpha, spec.variant, /*with_sender_gains=*/true);
      const auto sqrt_with = [&](FeasibilityEngine engine) {
        Stopwatch watch;
        SqrtColoringOptions options;
        options.seed = spec.seed;
        options.engine = engine;
        SqrtColoringResult run = sqrt_coloring(instance, params, spec.variant, options);
        return std::make_pair(std::move(run), watch.elapsed_ms());
      };
      const auto [sqrt_direct, sqrt_ms_direct] = sqrt_with(FeasibilityEngine::direct);
      const auto [sqrt_gain, sqrt_ms_gain] = sqrt_with(FeasibilityEngine::gain_matrix);
      result.has_sqrt = true;
      result.sqrt.colors = sqrt_gain.schedule.num_colors;
      result.sqrt.identical = same_schedule(sqrt_direct.schedule, sqrt_gain.schedule);
      result.sqrt.ms_direct = sqrt_ms_direct;
      result.sqrt.ms_gain = sqrt_ms_gain;
      result.sqrt.speedup = sqrt_ms_gain > 0.0 ? sqrt_ms_direct / sqrt_ms_gain : 0.0;
      // Re-validate the sqrt schedule too, under the powers it was built
      // for — identical-but-infeasible engines must not read as success.
      result.valid = result.valid &&
                     validate_schedule(instance, sqrt_gain.powers, sqrt_gain.schedule,
                                       params, spec.variant)
                         .valid;
    }

    result.ok = true;
  } catch (const std::exception& e) {
    result.error = e.what();
  }
  return result;
}

ScenarioResult run_scenario_repeated(const ScenarioSpec& spec, const SinrParams& params,
                                     std::size_t repeat) {
  ScenarioResult result = run_scenario(spec, params);
  const auto headline = [](const ScenarioResult& r) {
    return r.spec.is_dynamic() ? r.dynamic.events_per_sec : r.greedy.speedup;
  };
  std::vector<double> samples{headline(result)};
  if (result.ok) {
    for (std::size_t k = 1; k < repeat; ++k) {
      const ScenarioResult rerun = run_scenario(spec, params);
      if (!rerun.ok) continue;  // a flaky rerun shrinks the sample, only
      samples.push_back(headline(rerun));
    }
  }
  std::sort(samples.begin(), samples.end());
  result.repeat.count = samples.size();
  result.repeat.min = samples.front();
  result.repeat.median = percentile_sorted(samples, 0.5);
  result.repeat.max = samples.back();
  result.repeat.jitter = result.repeat.median > 0.0
                             ? (result.repeat.max - result.repeat.min) / result.repeat.median
                             : 0.0;
  // The entry's headline becomes the median run — the stable number the
  // CI floors gate on; the single-run fields keep the first run's values.
  if (result.spec.is_dynamic()) {
    result.dynamic.events_per_sec = result.repeat.median;
  } else {
    result.greedy.speedup = result.repeat.median;
  }
  return result;
}

std::vector<ScenarioResult> run_experiment_grid(std::span<const ScenarioSpec> grid,
                                                const SinrParams& params,
                                                std::size_t threads, std::size_t repeat) {
  if (threads == 0) threads = std::max(1u, std::thread::hardware_concurrency());
  if (repeat == 0) repeat = 1;
  std::vector<ScenarioResult> results(grid.size());
  parallel_for(grid.size(), threads, [&](std::size_t i) {
    results[i] = repeat > 1 ? run_scenario_repeated(grid[i], params, repeat)
                            : run_scenario(grid[i], params);
  });
  return results;
}

JsonValue experiment_report(std::span<const ScenarioResult> results,
                            const ExperimentOptions& options) {
  JsonValue root = JsonValue::object();
  root["schema"] = "oisched-bench-schedule/10";
  root["generator"] = "bench/run_experiments";
  root["mode"] = options.quick ? "quick" : "full";
  root["threads"] = options.threads;
  root["repeat"] = options.repeat == 0 ? std::size_t{1} : options.repeat;
  root["base_seed"] = static_cast<std::int64_t>(options.base_seed);
  JsonValue params = JsonValue::object();
  params["alpha"] = options.params.alpha;
  params["beta"] = options.params.beta;
  params["noise"] = options.params.noise;
  root["params"] = std::move(params);

  JsonValue entries = JsonValue::array();
  std::size_t failures = 0;
  std::size_t policy_disagreements = 0;
  std::size_t oracle_disagreements = 0;
  std::size_t farfield_disagreements = 0;
  std::size_t scan_disagreements = 0;
  std::size_t service_scenarios = 0;
  std::size_t farfield_scenarios = 0;
  std::vector<double> speedups;
  std::vector<double> event_rates;
  for (const ScenarioResult& result : results) {
    if (scenario_failed(result)) ++failures;
    if (result.ok && result.spec.is_service() && !result.dynamic.oracle_identical) {
      ++oracle_disagreements;
    }
    // Far-field disagreement = a bounds-first replay whose final schedule
    // diverged from its exact-only twin — the tentpole bit-identity claim
    // broken. CI gates this count at zero.
    if (result.ok && result.spec.is_farfield() && !result.dynamic.farfield_identical) {
      ++farfield_disagreements;
    }
    if (!result.scan_identical) ++scan_disagreements;
    // Policy disagreement = an exact-policy replay whose final schedule
    // diverged from the rebuild reference on the same trace — a wrong
    // answer, mirroring scenario_failed. Compensated divergence is
    // drift evidence, visible per entry in dynamic.policy_identical but
    // deliberately not counted (nor failed) here.
    if (result.ok && result.spec.is_dynamic() && result.spec.remove_policy == "exact" &&
        !result.dynamic.policy_identical) {
      ++policy_disagreements;
    }
    JsonValue entry = JsonValue::object();
    entry["scenario"] = result.spec.name();
    entry["family"] = !result.spec.is_dynamic()        ? "static"
                      : result.spec.is_service()       ? "dynamic-service"
                      : result.spec.is_farfield()      ? "dynamic-farfield"
                      : is_mobility_trace(result.spec.trace) ? "dynamic-mobility"
                                                             : "dynamic";
    entry["topology"] = result.spec.topology;
    entry["n"] = result.spec.n;
    entry["built_n"] = result.built_n;
    entry["power"] = result.spec.power;
    entry["variant"] = variant_name(result.spec.variant);
    entry["storage"] = result.spec.storage;
    entry["seed"] = static_cast<std::int64_t>(result.spec.seed);
    entry["ok"] = result.ok;
    if (result.repeat.count > 1) {
      JsonValue repeat = JsonValue::object();
      repeat["count"] = result.repeat.count;
      repeat["metric"] = result.spec.is_dynamic() ? "events_per_sec" : "greedy_speedup";
      repeat["min"] = result.repeat.min;
      repeat["median"] = result.repeat.median;
      repeat["max"] = result.repeat.max;
      repeat["jitter"] = result.repeat.jitter;
      entry["repeat"] = std::move(repeat);
    }
    if (!result.ok) {
      entry["error"] = result.error;
    } else if (result.spec.is_dynamic()) {
      if (result.spec.is_service()) ++service_scenarios;
      if (result.spec.is_farfield()) {
        ++farfield_scenarios;
        entry["farfield_cells"] = result.spec.farfield_cells;
      }
      entry["trace"] = result.spec.trace;
      entry["remove_policy"] = result.spec.remove_policy;
      entry["gain_build_ms"] = result.gain_build_ms;
      entry["dynamic"] = dynamic_json(result.dynamic, result.spec.is_farfield());
      if (!result.metrics.is_null()) entry["metrics"] = result.metrics;
      entry["valid"] = result.valid;
      event_rates.push_back(result.dynamic.events_per_sec);
    } else {
      entry["gain_build_ms"] = result.gain_build_ms;
      entry["greedy"] = comparison_json(result.greedy, /*with_incremental=*/true);
      if (result.has_sqrt) {
        entry["sqrt"] = comparison_json(result.sqrt, /*with_incremental=*/false);
      }
      entry["valid"] = result.valid;
      if (result.spec.scan_threads > 0) {
        entry["scan_threads"] = result.spec.scan_threads;
        entry["scan_identical"] = result.scan_identical;
        entry["scan_ms"] = result.scan_ms;
      }
      speedups.push_back(result.greedy.speedup);
    }
    entries.push_back(std::move(entry));
  }
  root["results"] = std::move(entries);

  JsonValue summary = JsonValue::object();
  summary["scenarios"] = results.size();
  summary["failures"] = failures;
  summary["policy_disagreements"] = policy_disagreements;
  summary["oracle_disagreements"] = oracle_disagreements;
  summary["farfield_disagreements"] = farfield_disagreements;
  summary["scan_disagreements"] = scan_disagreements;
  summary["service_scenarios"] = service_scenarios;
  summary["farfield_scenarios"] = farfield_scenarios;
  // One sort per series, quantiles via the shared util/stats helper —
  // this used to hand-pick order statistics in place.
  if (!speedups.empty()) {
    std::sort(speedups.begin(), speedups.end());
    summary["greedy_speedup_min"] = speedups.front();
    summary["greedy_speedup_median"] = percentile_sorted(speedups, 0.5);
    summary["greedy_speedup_max"] = speedups.back();
  }
  if (!event_rates.empty()) {
    std::sort(event_rates.begin(), event_rates.end());
    summary["dynamic_scenarios"] = event_rates.size();
    summary["events_per_sec_min"] = event_rates.front();
    summary["events_per_sec_median"] = percentile_sorted(event_rates, 0.5);
    summary["events_per_sec_max"] = event_rates.back();
  }
  root["summary"] = std::move(summary);
  return root;
}

}  // namespace oisched
