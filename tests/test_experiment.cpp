// The experiment substrate: JSON writer, thread pool, and the batch runner
// (grid shape, determinism across thread counts, report schema).
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <stdexcept>
#include <vector>

#include "util/experiment.h"
#include "util/json_writer.h"
#include "util/thread_pool.h"

namespace oisched {
namespace {

TEST(JsonWriter, ScalarsAndCompactLayout) {
  JsonValue root = JsonValue::object();
  root["int"] = 42;
  root["negative"] = -7;
  root["bool"] = true;
  root["null"];  // touched but never assigned stays null
  root["text"] = "hello";
  EXPECT_EQ(root.dump(0),
            R"({"int":42,"negative":-7,"bool":true,"null":null,"text":"hello"})");
}

TEST(JsonWriter, DoublesRoundTripShortest) {
  JsonValue root = JsonValue::array();
  root.push_back(0.5);
  root.push_back(1.0 / 3.0);
  root.push_back(1e300);
  EXPECT_EQ(root.dump(0), "[0.5,0.3333333333333333,1e+300]");
}

TEST(JsonWriter, NonFiniteBecomesNull) {
  JsonValue root = JsonValue::array();
  root.push_back(std::numeric_limits<double>::infinity());
  root.push_back(std::numeric_limits<double>::quiet_NaN());
  EXPECT_EQ(root.dump(0), "[null,null]");
}

TEST(JsonWriter, EscapesControlAndQuoteCharacters) {
  JsonValue root = JsonValue::object();
  root["k"] = "a\"b\\c\nd\te\x01"
              "f";
  EXPECT_EQ(root.dump(0), "{\"k\":\"a\\\"b\\\\c\\nd\\te\\u0001f\"}");
}

TEST(JsonWriter, PrettyPrintNests) {
  JsonValue root = JsonValue::object();
  root["list"].push_back(1);
  root["list"].push_back(2);
  EXPECT_EQ(root.dump(2), "{\n  \"list\": [\n    1,\n    2\n  ]\n}");
}

TEST(ThreadPool, RunsEverySubmittedTask) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&counter] { counter.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 100);
  // The pool stays usable after wait_idle.
  pool.submit([&counter] { counter.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 101);
}

TEST(ThreadPool, WaitIdleRethrowsFirstTaskError) {
  ThreadPool pool(2);
  pool.submit([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(pool.wait_idle(), std::runtime_error);
  // The error is consumed; the pool keeps working.
  std::atomic<int> counter{0};
  pool.submit([&counter] { counter.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 1);
}

TEST(ThreadPool, ParallelForCoversEachIndexOnce) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{3}, std::size_t{16}}) {
    std::vector<std::atomic<int>> hits(57);
    parallel_for(hits.size(), threads, [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < hits.size(); ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "index " << i << " threads " << threads;
    }
  }
  // Degenerate cases.
  parallel_for(0, 4, [](std::size_t) { FAIL() << "no work expected"; });
}

TEST(ExperimentGrid, QuickGridCoversEveryTopologyPlusFlagship) {
  ExperimentOptions options;
  options.quick = true;
  const auto grid = experiment_grid(options);
  std::set<std::string> topologies;
  bool has_flagship = false;
  for (const auto& spec : grid) {
    topologies.insert(spec.topology);
    if (spec.topology == "random" && spec.n == 256) has_flagship = true;
  }
  EXPECT_EQ(topologies,
            (std::set<std::string>{"line", "grid", "random", "adversarial"}));
  EXPECT_TRUE(has_flagship);
}

TEST(ExperimentGrid, FullGridSweepsSizesAndPowers) {
  ExperimentOptions options;
  const auto grid = experiment_grid(options);
  // 24 static cells + the n512 flagship + 6 dynamic (3 trace kinds x 2
  // sizes) + 6 dynamic-mobility (3 motion kinds x 2 sizes) + the n512
  // growing cell + the computed-storage waypoint cell + the n16384
  // computed hotspot cell + 2
  // remove-policy cells (flagship poisson under rebuild and compensated)
  // + 7 dynamic-service cells (saturated s1/s2/s4/s8, paced s4 at two
  // rates, waypoint s4) + the n512 parallel-scan cell + 4
  // dynamic-farfield cells (n4096 poisson/waypoint, n16384 and n131072
  // tableless).
  EXPECT_EQ(grid.size(), 54u);
  std::set<std::string> trace_kinds;
  std::set<std::string> storages;
  std::set<std::string> policies;
  for (const auto& spec : grid) {
    if (spec.is_dynamic()) {
      trace_kinds.insert(spec.trace);
      policies.insert(spec.remove_policy);
    }
    storages.insert(spec.storage);
  }
  EXPECT_EQ(trace_kinds,
            (std::set<std::string>{"poisson", "flash", "adversarial", "hotspot",
                                   "growing", "waypoint", "commuter", "flashmob"}));
  EXPECT_EQ(storages, (std::set<std::string>{"dense", "computed"}));
  EXPECT_EQ(policies, (std::set<std::string>{"exact", "rebuild", "compensated"}));
  // Seeds are distinct so scenarios are independent draws — except the
  // remove-policy axis (2 cells), the service cells (6 poisson + 1
  // waypoint) and the parallel-scan cell, which deliberately replay the
  // SAME seed (and therefore instance and trace) as their bare twins so
  // the numbers are directly comparable.
  std::set<std::uint64_t> seeds;
  for (const auto& spec : grid) seeds.insert(spec.seed);
  EXPECT_EQ(seeds.size(), grid.size() - 10);
  std::uint64_t flagship_seed = 0;
  std::uint64_t rebuild_seed = 1;
  for (const auto& spec : grid) {
    if (spec.name() == "dynamic/random/n256/poisson/sqrt/bidirectional") {
      flagship_seed = spec.seed;
    }
    if (spec.name() == "dynamic/random/n256/poisson/sqrt/bidirectional/rebuild") {
      rebuild_seed = spec.seed;
    }
  }
  EXPECT_EQ(flagship_seed, rebuild_seed);
}

TEST(ExperimentGrid, QuickGridIncludesDynamicFamily) {
  ExperimentOptions options;
  options.quick = true;
  const auto grid = experiment_grid(options);
  bool has_flagship_churn = false;
  bool has_growing = false;
  bool has_mobility = false;
  bool has_farfield = false;
  bool has_parallel_scan = false;
  for (const auto& spec : grid) {
    if (spec.name() == "dynamic/random/n256/poisson/sqrt/bidirectional") {
      has_flagship_churn = true;
    }
    if (spec.name() == "dynamic/random/n128/growing/sqrt/bidirectional") {
      has_growing = true;
    }
    if (spec.name() == "dynamic/random/n256/waypoint/sqrt/bidirectional") {
      has_mobility = true;
    }
    if (spec.name() ==
        "dynamic-farfield/random/n131072/poisson/sqrt/bidirectional/computed/"
        "e4000/g1024") {
      has_farfield = true;
      EXPECT_TRUE(spec.is_farfield());
      EXPECT_TRUE(spec.is_dynamic());
    }
    if (spec.name() == "random/n256/sqrt/bidirectional/t4") {
      has_parallel_scan = true;
      EXPECT_FALSE(spec.is_dynamic());
    }
  }
  EXPECT_TRUE(has_flagship_churn);
  EXPECT_TRUE(has_growing);
  EXPECT_TRUE(has_mobility);
  EXPECT_TRUE(has_farfield);
  EXPECT_TRUE(has_parallel_scan);
}

TEST(ExperimentGrid, NonExactDefaultPolicySkipsDuplicateAxisCells) {
  // With --remove-policy rebuild the flagship cell itself runs rebuild;
  // the pinned rebuild axis cell must then be skipped, or two cells
  // would share one scenario name and seed.
  for (const bool quick : {false, true}) {
    ExperimentOptions options;
    options.quick = quick;
    options.remove_policy = "rebuild";
    std::set<std::string> names;
    for (const auto& spec : experiment_grid(options)) {
      EXPECT_TRUE(names.insert(spec.name()).second) << "duplicate " << spec.name();
    }
  }
}

TEST(ExperimentRunner, GrowingScenarioGrowsTheUniverseAndValidates) {
  ScenarioSpec spec;
  spec.topology = "random";
  spec.n = 64;
  spec.power = "sqrt";
  spec.variant = Variant::bidirectional;
  spec.seed = 21;
  spec.trace = "growing";
  SinrParams params;
  const ScenarioResult result = run_scenario(spec, params);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_TRUE(result.valid);  // grown final state bit-identical + feasible
  EXPECT_GT(result.dynamic.fresh_links, 0u);
  // The scheduler started on half the instance and grew to all of it.
  EXPECT_EQ(result.dynamic.final_universe, result.built_n);
  EXPECT_FALSE(scenario_failed(result));
}

TEST(ExperimentRunner, DynamicScenarioReplaysAndValidates) {
  ScenarioSpec spec;
  spec.topology = "random";
  spec.n = 32;
  spec.power = "sqrt";
  spec.variant = Variant::bidirectional;
  spec.seed = 11;
  spec.trace = "poisson";
  SinrParams params;
  const ScenarioResult result = run_scenario(spec, params);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_TRUE(result.valid);  // final state bit-identical + feasible
  EXPECT_GT(result.dynamic.events, 0u);
  EXPECT_GT(result.dynamic.events_per_sec, 0.0);
  EXPECT_GE(result.dynamic.peak_colors, result.dynamic.final_colors);
  EXPECT_FALSE(scenario_failed(result));
}

TEST(ExperimentRunner, ScenarioRunsEnginesIdenticalAndValid) {
  ScenarioSpec spec;
  spec.topology = "random";
  spec.n = 24;
  spec.power = "sqrt";
  spec.variant = Variant::bidirectional;
  spec.seed = 3;
  SinrParams params;
  const ScenarioResult result = run_scenario(spec, params);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.built_n, 24u);
  EXPECT_GT(result.greedy.colors, 0);
  EXPECT_TRUE(result.greedy.identical);
  EXPECT_TRUE(result.has_sqrt);
  EXPECT_TRUE(result.sqrt.identical);
  EXPECT_TRUE(result.valid);
}

TEST(ExperimentRunner, UnknownTopologyFailsSoftly) {
  ScenarioSpec spec;
  spec.topology = "moebius";
  spec.n = 4;
  spec.power = "sqrt";
  const ScenarioResult result = run_scenario(spec, SinrParams{});
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("unknown topology"), std::string::npos);
}

TEST(ExperimentRunner, ResultsIndependentOfThreadCount) {
  ExperimentOptions options;
  options.quick = true;
  SinrParams params;
  auto grid = experiment_grid(options);
  // Trim to the cheap scenarios to keep the suite fast.
  grid.resize(4);
  const auto serial = run_experiment_grid(grid, params, 1);
  const auto parallel = run_experiment_grid(grid, params, 4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].ok, parallel[i].ok);
    EXPECT_EQ(serial[i].built_n, parallel[i].built_n);
    EXPECT_EQ(serial[i].greedy.colors, parallel[i].greedy.colors);
    EXPECT_EQ(serial[i].greedy.identical, parallel[i].greedy.identical);
    EXPECT_EQ(serial[i].valid, parallel[i].valid);
  }
}

TEST(ExperimentReport, EmitsSchemaResultsAndSummary) {
  ExperimentOptions options;
  options.quick = true;
  options.threads = 2;
  SinrParams params;
  auto grid = experiment_grid(options);
  grid.resize(2);
  const auto results = run_experiment_grid(grid, params, 2);
  const JsonValue report = experiment_report(results, options);
  const std::string text = report.dump();
  EXPECT_NE(text.find("\"schema\": \"oisched-bench-schedule/10\""), std::string::npos);
  EXPECT_NE(text.find("\"repeat\": 1"), std::string::npos);
  EXPECT_NE(text.find("\"policy_disagreements\": 0"), std::string::npos);
  EXPECT_NE(text.find("\"oracle_disagreements\": 0"), std::string::npos);
  EXPECT_NE(text.find("\"storage\": \"dense\""), std::string::npos);
  EXPECT_NE(text.find("\"results\""), std::string::npos);
  EXPECT_NE(text.find("\"greedy\""), std::string::npos);
  EXPECT_NE(text.find("\"summary\""), std::string::npos);
  EXPECT_NE(text.find("\"failures\": 0"), std::string::npos);
}

TEST(ExperimentRunner, DynamicCellRunsExactPolicyWithZeroRebuilds) {
  ScenarioSpec spec;
  spec.topology = "random";
  spec.n = 32;
  spec.power = "sqrt";
  spec.variant = Variant::bidirectional;
  spec.seed = 11;
  spec.trace = "poisson";
  SinrParams params;
  const ScenarioResult result = run_scenario(spec, params);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(spec.remove_policy, "exact");  // the default of the axis
  // The tentpole invariants: no removal ever triggered a full replay, and
  // the final schedule is bit-identical to the rebuild-policy reference.
  EXPECT_EQ(result.dynamic.removal_rebuilds, 0u);
  EXPECT_TRUE(result.dynamic.policy_identical);
  EXPECT_FALSE(scenario_failed(result));
  // Dynamic cells carry a telemetry snapshot of the replay.
  ASSERT_FALSE(result.metrics.is_null());
  const std::string metrics_text = result.metrics.dump();
  EXPECT_NE(metrics_text.find("\"oisched-metrics/1\""), std::string::npos);
  EXPECT_NE(metrics_text.find("oisched_events_total"), std::string::npos);
  EXPECT_NE(metrics_text.find("oisched_event_latency_seconds"), std::string::npos);
  // Since schema /8, every dynamic cell reads its per-event latency
  // budget off that histogram into the entry itself.
  EXPECT_GT(result.dynamic.latency_p50_ms, 0.0);
  EXPECT_GE(result.dynamic.latency_p99_ms, result.dynamic.latency_p50_ms);
}

TEST(ExperimentRunner, RepeatedRunReportsHeadlineStability) {
  ScenarioSpec spec;
  spec.topology = "random";
  spec.n = 32;
  spec.power = "sqrt";
  spec.variant = Variant::bidirectional;
  spec.seed = 11;
  spec.trace = "poisson";
  SinrParams params;
  const ScenarioResult result = run_scenario_repeated(spec, params, 3);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.repeat.count, 3u);
  EXPECT_LE(result.repeat.min, result.repeat.median);
  EXPECT_LE(result.repeat.median, result.repeat.max);
  EXPECT_GE(result.repeat.jitter, 0.0);
  // The entry's headline number is the median run.
  EXPECT_EQ(result.dynamic.events_per_sec, result.repeat.median);
  // Correctness fields are deterministic across repeats.
  EXPECT_EQ(result.dynamic.removal_rebuilds, 0u);
  EXPECT_TRUE(result.dynamic.policy_identical);
  EXPECT_FALSE(scenario_failed(result));
}

TEST(ExperimentRunner, RebuildPolicyCellCountsItsReplays) {
  ScenarioSpec spec;
  spec.topology = "random";
  spec.n = 32;
  spec.power = "sqrt";
  spec.variant = Variant::bidirectional;
  spec.seed = 11;
  spec.trace = "poisson";
  spec.remove_policy = "rebuild";
  SinrParams params;
  const ScenarioResult result = run_scenario(spec, params);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_NE(result.spec.name().find("/rebuild"), std::string::npos);
  // Every removal pays a replay under the historical policy.
  EXPECT_GT(result.dynamic.removal_rebuilds, 0u);
  EXPECT_TRUE(result.dynamic.policy_identical);  // trivially: it IS the reference
  EXPECT_FALSE(scenario_failed(result));
}

TEST(ExperimentRunner, GrowingCellExactPolicyMatchesRebuildReference) {
  ScenarioSpec spec;
  spec.topology = "random";
  spec.n = 64;
  spec.power = "sqrt";
  spec.variant = Variant::bidirectional;
  spec.seed = 21;
  spec.trace = "growing";
  SinrParams params;
  const ScenarioResult result = run_scenario(spec, params);
  ASSERT_TRUE(result.ok) << result.error;
  // sync_universe growth replay under the exact policy: still bit-identical
  // to the rebuild twin over the grown universe, still zero rebuilds.
  EXPECT_EQ(result.dynamic.removal_rebuilds, 0u);
  EXPECT_TRUE(result.dynamic.policy_identical);
  EXPECT_FALSE(scenario_failed(result));
}

TEST(ExperimentRunner, MobilityCellReplaysInPlaceAndMatchesRebuildReference) {
  for (const char* trace : {"waypoint", "commuter", "flashmob"}) {
    ScenarioSpec spec;
    spec.topology = "random";
    spec.n = 48;
    spec.power = "sqrt";
    spec.variant = Variant::bidirectional;
    spec.seed = 27;
    spec.trace = trace;
    SinrParams params;
    const ScenarioResult result = run_scenario(spec, params);
    ASSERT_TRUE(result.ok) << trace << ": " << result.error;
    EXPECT_TRUE(result.valid) << trace;
    // Motion actually flowed through the in-place update path...
    EXPECT_GT(result.dynamic.link_updates, 0u) << trace;
    // ...with zero removal-triggered rebuilds under the exact default and
    // a final schedule bit-identical to the rebuild-policy twin.
    EXPECT_EQ(result.dynamic.removal_rebuilds, 0u) << trace;
    EXPECT_TRUE(result.dynamic.policy_identical) << trace;
    EXPECT_FALSE(scenario_failed(result)) << trace;
  }
  // The report files mobility cells under their own family string.
  ScenarioSpec spec;
  spec.topology = "random";
  spec.n = 48;
  spec.power = "sqrt";
  spec.seed = 27;
  spec.trace = "waypoint";
  const std::vector<ScenarioResult> results = {run_scenario(spec, SinrParams{})};
  const JsonValue report = experiment_report(results, ExperimentOptions{});
  EXPECT_NE(report.dump().find("\"family\": \"dynamic-mobility\""), std::string::npos);
}

TEST(ExperimentRunner, UnknownRemovePolicyFailsSoftly) {
  ScenarioSpec spec;
  spec.topology = "random";
  spec.n = 8;
  spec.power = "sqrt";
  spec.seed = 1;
  spec.trace = "poisson";
  spec.remove_policy = "telepathic";
  const ScenarioResult result = run_scenario(spec, SinrParams{});
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("unknown remove policy"), std::string::npos);
}

}  // namespace
}  // namespace oisched
