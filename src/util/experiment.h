// Batch experiment harness: a scenario grid, a parallel runner, and a
// machine-readable JSON report (the BENCH_schedule.json CI regresses on).
//
// One scenario = (topology, n, power assignment, variant, seed). Running it
// builds the instance, times greedy first-fit under all three feasibility
// engines (direct re-check, metric-incremental, gain-matrix) plus the
// Section-5 sqrt coloring under the direct and gain-matrix paths, verifies
// the engines agree bit-for-bit, and re-validates the produced schedule
// from scratch. The grid fans across a ThreadPool; every scenario is
// deterministic in its own seed, so results are independent of thread
// count and arrival order.
#ifndef OISCHED_UTIL_EXPERIMENT_H
#define OISCHED_UTIL_EXPERIMENT_H

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "sinr/model.h"
#include "util/json_writer.h"

namespace oisched {

/// One cell of the scenario grid.
struct ScenarioSpec {
  std::string topology;  // "line" | "grid" | "random" | "adversarial"
  std::size_t n = 0;     // requested instance size
  std::string power;     // "uniform" | "linear" | "sqrt"
  Variant variant = Variant::bidirectional;
  std::uint64_t seed = 1;
  /// Empty for the static (one-shot coloring) family; a ChurnTrace kind
  /// ("poisson" | "flash" | "adversarial" | "hotspot" | "growing")
  /// selects the dynamic family, which replays a generated trace through
  /// the OnlineScheduler and reports throughput instead of one-shot
  /// coloring time. "growing" starts from half the instance and introduces
  /// the other half as fresh links (dense storage required). The
  /// mobility kinds ("waypoint" | "commuter" | "flashmob") select the
  /// dynamic-mobility family: churn interleaved with endpoint motion,
  /// replayed through the in-place update path on a privately owned
  /// matrix.
  std::string trace;
  /// Gain-table backend: "dense" | "computed". computed (dynamic family
  /// only) replays universes too large for an n^2 table.
  std::string storage = "dense";
  /// Dynamic family only: the accumulator RemovePolicy the replay runs
  /// under ("exact" | "rebuild" | "compensated"). exact — the scheduler
  /// default — removes in O(n) with zero rounding error and zero replays.
  std::string remove_policy = "exact";
  /// Dynamic-service family (> 0): replay the trace through a
  /// SchedulerService with this many shards instead of a bare
  /// OnlineScheduler — the typed-admission front-end whose shards first-fit
  /// their own hash partition into disjoint color planes. 0 = not a
  /// service cell.
  std::size_t shards = 0;
  /// Dynamic-service family: open-loop submission rate in events/sec
  /// (0 = saturated — submit as fast as the ingest queues accept). The
  /// saturation sweep varies this axis to trace rate -> latency curves.
  std::size_t service_rate = 0;
  /// Dynamic-farfield family (> 0): replay with the spatial-cell far-field
  /// aggregation layer on, targeting this many grid cells. The runner
  /// re-replays the same trace with far-field off (untimed) and gates the
  /// final schedules bit for bit — the recorded evidence that bounds-first
  /// feasibility never changes a decision.
  std::size_t farfield_cells = 0;
  /// Dynamic families: caps the generated trace at this many events
  /// (0 = the kind's own default, 16x the universe for churn kinds — far
  /// too many at n >= 10^5, where the large cells pin a budget instead).
  std::size_t trace_events = 0;
  /// Static family (> 0): re-run the greedy gain engine with this many
  /// parallel candidate-scan workers and gate the schedule bit for bit
  /// against the sequential scan (ScenarioResult::scan_identical).
  std::size_t scan_threads = 0;

  [[nodiscard]] bool is_dynamic() const noexcept { return !trace.empty(); }
  [[nodiscard]] bool is_service() const noexcept { return shards > 0; }
  [[nodiscard]] bool is_farfield() const noexcept { return farfield_cells > 0; }

  /// "random/n256/sqrt/bidirectional", or
  /// "dynamic/random/n256/poisson/sqrt/bidirectional" for the dynamic
  /// family — stable scenario identifiers. The computed backend appends a
  /// "/computed" segment; non-default remove policies a
  /// "/rebuild" (etc.) one. Service cells use the "dynamic-service/"
  /// prefix and always append "/s<shards>" (plus "/r<rate>" when paced),
  /// e.g. "dynamic-service/random/n256/poisson/sqrt/bidirectional/s4".
  /// Far-field cells use the "dynamic-farfield/" prefix and append
  /// "/g<cells>"; a trace-event cap appends "/e<events>" and a static
  /// parallel-scan cell "/t<threads>".
  [[nodiscard]] std::string name() const;
};

/// Engine comparison for one algorithm on one scenario. Colors are counted
/// after the engines are checked for bit-for-bit equality, so a single
/// `colors` field suffices; `identical` reports that check.
struct EngineComparison {
  int colors = 0;
  bool identical = false;     // all engines produced the same schedule
  double ms_direct = 0.0;     // from-scratch re-check per query
  double ms_incremental = 0.0;  // metric-based accumulators (greedy only)
  double ms_gain = 0.0;       // gain-matrix engine
  double speedup = 0.0;       // ms_direct / ms_gain
};

/// Replay measurement of one dynamic (trace-driven) scenario. Throughput —
/// events/sec through the OnlineScheduler — is the headline number.
struct DynamicResult {
  std::size_t events = 0;
  double wall_ms = 0.0;          // event loop only
  double events_per_sec = 0.0;
  int peak_colors = 0;
  int final_colors = 0;
  std::size_t final_active = 0;
  std::size_t final_universe = 0;  // grows past built_n on growing traces
  std::size_t fresh_links = 0;     // universe-growing arrivals replayed
  std::size_t link_updates = 0;    // endpoint-motion events applied in place
  /// Of the link updates, how many broke the moved link's class and forced
  /// a first-fit re-placement.
  std::size_t update_migrations = 0;
  std::size_t migrations = 0;     // compaction recolorings
  std::size_t compaction_skips = 0;  // immovable members skipped over
  /// Full O(|class| * n) replays removals triggered — 0 under the exact
  /// policy (the point of it), one per removal under rebuild.
  std::size_t removal_rebuilds = 0;
  std::size_t classes_opened = 0;
  std::size_t classes_closed = 0;
  double max_event_ms = 0.0;      // worst single-event latency
  /// Replay under a non-rebuild policy re-run under RemovePolicy::rebuild
  /// on the same trace produced the bit-identical final schedule — the
  /// runner-level policy-equivalence gate. A failure counts as a scenario
  /// failure for the exact policy (whose guarantee it is); compensated is
  /// drift-bounded, not bit-exact, so there it is informational. Cells
  /// with universes past 4096 links skip the twin (its O(|class| * n)
  /// replay-on-remove would dwarf the timed measurement; the differential
  /// fuzz suites cover large-n policy identity) and report true.
  bool policy_identical = true;
  /// Dynamic-service family only (spec.shards > 0). Latency is
  /// submit-to-completion (queue wait plus scheduling work), the quantity
  /// the saturation sweep traces against the arrival rate.
  std::size_t shards = 0;
  std::size_t arrival_rate = 0;      // 0 = saturated open loop
  /// Per-event latency budget of the cell. Bare dynamic cells read these
  /// from the replay's oisched_event_latency_seconds histogram
  /// (scheduling work only); service cells report submit-to-completion
  /// (queue wait plus scheduling work) from the service's own tracker.
  double latency_p50_ms = 0.0;
  double latency_p99_ms = 0.0;
  /// Every shard's drained state matched a fresh single-thread
  /// OnlineScheduler replay of its sub-trace bit for bit — the service's
  /// no-lost-no-duplicated-events gate (a failure fails the scenario).
  bool oracle_identical = true;
  std::size_t boundary_refreshes = 0;
  double max_boundary_gain = 0.0;    // cross-shard far-field bound
  std::size_t packable_class_pairs = 0;
  /// Dynamic-farfield family only (spec.farfield_cells > 0). How the
  /// replay's feasibility tests resolved: certified from the per-cell
  /// interference bounds alone, or straddling the threshold and forced
  /// into an exact row reconstruction. fallback_fraction is
  /// exact_fallbacks / (bound_hits + exact_fallbacks) — the n=131072 CI
  /// cell gates it below 0.1.
  std::size_t bound_hits = 0;
  std::size_t exact_fallbacks = 0;
  double fallback_fraction = 0.0;
  /// The same trace re-replayed with far-field off produced the
  /// bit-identical final schedule — the family's correctness gate (a
  /// failure fails the scenario).
  bool farfield_identical = true;
};

/// Timing stability of one cell across --repeat runs. The tracked metric
/// is the cell's headline number: events/sec for dynamic families,
/// greedy speedup for static ones. Correctness fields are deterministic
/// per seed, so repeats only vary the timings.
struct RepeatStats {
  std::size_t count = 1;
  double min = 0.0;
  double median = 0.0;
  double max = 0.0;
  /// (max - min) / median — the cell's relative timing spread; what a CI
  /// floor should budget for on a noisy runner.
  double jitter = 0.0;
};

struct ScenarioResult {
  ScenarioSpec spec;
  bool ok = false;      // ran to completion (false => see error)
  std::string error;
  std::size_t built_n = 0;  // adversarial families may truncate
  double gain_build_ms = 0.0;
  EngineComparison greedy;
  /// Only measured when spec.power == "sqrt" (the algorithm fixes its own
  /// square-root powers, so other grid cells would duplicate the numbers).
  bool has_sqrt = false;
  EngineComparison sqrt;
  /// Dynamic family only (spec.is_dynamic()).
  DynamicResult dynamic;
  /// Static family: every produced schedule re-validated from scratch with
  /// the direct checker. Dynamic family: the replayed final state
  /// re-validated bit-for-bit against the direct feasibility engine.
  bool valid = false;
  /// Static family with spec.scan_threads > 0: the parallel candidate
  /// scan reproduced the sequential schedule bit for bit (summary counts
  /// the disagreements; a failure fails the scenario).
  bool scan_identical = true;
  double scan_ms = 0.0;  // the parallel scan's own greedy timing
  /// Dynamic family: the cell's telemetry registry scraped after the
  /// replay (schema oisched-metrics/1, see MetricsSnapshot::to_json) —
  /// null for static cells, emitted under the entry's "metrics" key.
  JsonValue metrics;
  /// Headline-metric stability across --repeat runs; count == 1 when the
  /// cell ran once. With repeats, the headline fields (events_per_sec /
  /// greedy speedup) hold the median run, the stable number CI floors
  /// gate on.
  RepeatStats repeat;
};

/// A scenario counts as failed when it threw, when any engine pair
/// disagreed, or when a schedule failed re-validation — the definition
/// both the runner's exit code and the report's summary.failures use.
[[nodiscard]] bool scenario_failed(const ScenarioResult& result);

struct ExperimentOptions {
  /// Quick mode: the small CI-smoke grid (a few n=32 scenarios plus the
  /// flagship n=256 random one). Full mode sweeps topologies x sizes x
  /// power assignments.
  bool quick = false;
  std::size_t threads = 0;  // 0 = hardware concurrency
  std::uint64_t base_seed = 1;
  SinrParams params;        // alpha/beta/noise shared by every scenario
  /// Default remove policy for dynamic cells that do not pin one
  /// ("exact" | "rebuild" | "compensated"); the policy-axis cells always
  /// pin theirs.
  std::string remove_policy = "exact";
  /// Runs every cell this many times (back to back on one worker) and
  /// reports the headline metric's min/median/max/jitter; the entry's
  /// headline fields then hold the median run. 1 = single run.
  std::size_t repeat = 1;
};

/// The scenario grid for the given options; deterministic in base_seed.
[[nodiscard]] std::vector<ScenarioSpec> experiment_grid(const ExperimentOptions& options);

/// Runs one scenario (never throws: failures land in .error).
[[nodiscard]] ScenarioResult run_scenario(const ScenarioSpec& spec,
                                          const SinrParams& params);

/// run_scenario, `repeat` times back to back; the returned result is the
/// first run with its headline metric replaced by the median and
/// .repeat filled in (see RepeatStats).
[[nodiscard]] ScenarioResult run_scenario_repeated(const ScenarioSpec& spec,
                                                   const SinrParams& params,
                                                   std::size_t repeat);

/// Fans the grid across a thread pool; results align with `grid` by
/// index. Each cell's repeats run back to back on one worker.
[[nodiscard]] std::vector<ScenarioResult> run_experiment_grid(
    std::span<const ScenarioSpec> grid, const SinrParams& params, std::size_t threads,
    std::size_t repeat = 1);

/// Bundles results into the BENCH_schedule.json document
/// (schema "oisched-bench-schedule/10"; layout documented in README.md).
[[nodiscard]] JsonValue experiment_report(std::span<const ScenarioResult> results,
                                          const ExperimentOptions& options);

}  // namespace oisched

#endif  // OISCHED_UTIL_EXPERIMENT_H
