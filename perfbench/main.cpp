// The benchmark of record:
//
//   perfbench --workload offline|churn|farfield|service-mobility
//             --seed N --seconds S --trace 0|1
//   perfbench --self-test
//
// One process runs one workload through the library's public API. With
// --trace 0 it prints the end-to-end metrics, with --trace 1 the
// per-layer ones (every name on every workload; a layer that does not run
// on a workload reads 0). The last line of stdout is the result object:
//   {"correct": true, "attempted": N, "failed": N, "metrics": {...}}
// Notes on sample sizes and set-up go to stderr.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <set>
#include <string>

#include "bench.h"
#include "measure.h"

namespace {

using namespace perfbench;

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Kept in step with BENCHMARK.json's end_to_end and per_layer lists.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},       {"peak_rss_mb", "MB"},  {"events_per_s", "events/s"},
    {"event_p50_us", "us"}, {"event_p90_us", "us"}, {"colors_final", "count"},
};

constexpr MetricSpec kPerLayer[] = {
    {"sinr.gain_build_s", "s"},
    {"sinr.gain_resident_mb", "MB"},
    {"sinr.accumulator_update_ms", "ms"},
    {"sinr.feasibility_scan_ms", "ms"},
    {"sinr.farfield.bound_hits", "count"},
    {"sinr.farfield.exact_fallbacks", "count"},
    {"sinr.farfield.fallback_frac", "ratio"},
    {"sinr.farfield.twin_farfield_prefix_s", "s"},
    {"sinr.farfield.twin_exact_prefix_s", "s"},
    {"online.apply_self_ms", "ms"},
    {"online.compaction_ms", "ms"},
    {"online.migrations", "count"},
    {"online.compaction_skips", "count"},
    {"online.update_migrations", "count"},
    {"online.arrival_p50_us", "us"},
    {"online.arrival_p99_us", "us"},
    {"online.departure_p50_us", "us"},
    {"online.departure_p99_us", "us"},
    {"online.update_p50_us", "us"},
    {"online.update_p99_us", "us"},
    {"online.probes_per_arrival", "ratio"},
    {"online.event_p99_us", "us"},
    {"online.event_wall_p99_us", "us"},
    {"online.event_cpu_p99_us", "us"},
    {"online.twin_exact_prefix_s", "s"},
    {"online.twin_compensated_prefix_s", "s"},
    {"online.twin_rebuild_prefix_s", "s"},
    {"service.queue_wait_p50_us", "us"},
    {"service.queue_wait_p99_us", "us"},
    {"service.work_p50_us", "us"},
    {"service.batch_mean", "events"},
    {"service.shard_imbalance", "ratio"},
    {"service.generator_lag_p99_us", "us"},
    {"service.max_rate_eps", "events/s"},
    {"service.latency_p50_us", "us"},
    {"service.latency_p99_us", "us"},
    {"lp.sqrt_color_s", "s"},
    {"lp.sqrt_colors", "count"},
    {"lp.solves", "count"},
    {"lp.rounds", "count"},
    {"lp.greedy_fallbacks", "count"},
    {"core.greedy_gain_s", "s"},
    {"core.greedy_incremental_s", "s"},
    {"gen.mean_length_drift", "ratio"},
    {"obs.trace_overhead", "ratio"},
    {"obs.span_self_total_frac", "ratio"},
    {"os.involuntary_switches", "count"},
};

int usage() {
  std::cerr << "usage: perfbench --workload offline|churn|farfield|service-mobility\n"
               "                 --seed N --seconds S --trace 0|1\n"
               "       perfbench --self-test\n";
  return 2;
}

/// Orders the report's metrics by the spec list, fills a layer that did
/// not run with 0, and rejects names outside the list.
template <std::size_t N>
std::vector<Metric> complete(const Report& report, const MetricSpec (&specs)[N],
                             bool fill_missing) {
  std::set<std::string> known;
  for (const MetricSpec& spec : specs) known.insert(spec.name);
  for (const Metric& metric : report.metrics) {
    if (known.count(metric.name) == 0) {
      throw std::logic_error("metric outside the declared list: " + metric.name);
    }
  }
  std::vector<Metric> out;
  for (const MetricSpec& spec : specs) {
    const Metric* found = nullptr;
    for (const Metric& metric : report.metrics) {
      if (metric.name == spec.name) found = &metric;
    }
    if (found == nullptr && !fill_missing) {
      throw std::logic_error(std::string("end-to-end metric not measured: ") + spec.name);
    }
    out.push_back(Metric{spec.name, found != nullptr ? found->value : 0.0, spec.unit});
  }
  return out;
}

void print_result(const Report& report, const std::vector<Metric>& metrics) {
  std::string line = "{\"correct\": ";
  line += report.correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(report.attempted);
  line += ", \"failed\": " + std::to_string(report.failed);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (!std::isfinite(metrics[i].value)) {
      throw std::logic_error("non-finite metric: " + metrics[i].name);
    }
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    if (i > 0) line += ", ";
    line += "\"" + metrics[i].name + "\": {\"value\": " + value + ", \"unit\": \"" +
            metrics[i].unit + "\"}";
  }
  line += "}}";
  std::cout << line << std::endl;
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--self-test") return run_self_tests(/*verbose=*/true) == 0 ? 0 : 1;
    if (i + 1 >= argc) return usage();
    const std::string value = argv[++i];
    if (arg == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
      if (!(options.seconds > 0.0)) return usage();
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return usage();
      options.trace = value == "1";
    } else {
      return usage();
    }
  }
  if (!have_workload) return usage();
  try {
    // The arithmetic every metric rests on is re-checked before each run.
    if (run_self_tests(/*verbose=*/false) != 0) {
      std::cerr << "perfbench: self-tests failed\n";
      return 1;
    }
    Report report;
    if (options.workload == "offline") {
      report = run_offline(options);
    } else if (options.workload == "churn") {
      report = run_churn(options);
    } else if (options.workload == "farfield") {
      report = run_farfield(options);
    } else if (options.workload == "service-mobility") {
      report = run_service(options);
    } else {
      return usage();
    }
    if (report.attempted == 0) throw std::logic_error("no operation attempted");
    print_result(report, options.trace ? complete(report, kPerLayer, true)
                                       : complete(report, kEndToEnd, false));
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: error: " << e.what() << '\n';
    return 1;
  }
}
