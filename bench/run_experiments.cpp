// Parallel batch experiment runner: fans the scenario grid across a thread
// pool and emits the machine-readable BENCH_schedule.json perf baseline.
//
//   $ ./run_experiments                         # full grid -> BENCH_schedule.json
//   $ ./run_experiments --quick                 # CI-smoke grid
//   $ ./run_experiments --out results.json --threads 4 --seed 7
//
// Unlike the bench_* binaries this one needs no Google Benchmark: it is
// the recorded-trajectory side of the perf story (wall time, colors used,
// speedup of the gain-matrix engine over the direct path), schema-checked
// and archived by CI. See README.md for the JSON schema.
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>

#include "util/experiment.h"
#include "util/options.h"
#include "util/stopwatch.h"

namespace {

using namespace oisched;

int usage() {
  std::cerr << "usage: run_experiments [--quick] [--out PATH] [--threads N] [--seed S]\n"
               "                       [--alpha A] [--beta B]\n"
               "                       [--remove-policy exact|rebuild|compensated]\n"
               "                       [--repeat N]\n"
               "  --repeat runs every cell N times back to back and reports the headline\n"
               "  metric's min/median/max/jitter per cell; the cell's headline number\n"
               "  becomes the median run (the stable value CI floors gate on).\n"
               "  --remove-policy sets the default accumulator policy of the dynamic\n"
               "  cells that do not pin one (the policy-axis cells always do); scenario\n"
               "  names grow a suffix for non-exact policies.\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  ExperimentOptions options;
  std::string out_path = "BENCH_schedule.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      options.quick = true;
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (arg == "--threads" && i + 1 < argc) {
      const Expected<std::size_t> threads = parse_size_word(arg, argv[++i]);
      if (!threads) return usage();
      options.threads = threads.value();
    } else if (arg == "--seed" && i + 1 < argc) {
      const Expected<std::size_t> seed = parse_size_word(arg, argv[++i]);
      if (!seed) return usage();
      options.base_seed = seed.value();
    } else if (arg == "--repeat" && i + 1 < argc) {
      const Expected<std::size_t> repeat = parse_size_word(arg, argv[++i]);
      if (!repeat || repeat.value() == 0) return usage();
      options.repeat = repeat.value();
    } else if (arg == "--alpha" && i + 1 < argc) {
      options.params.alpha = std::strtod(argv[++i], nullptr);
    } else if (arg == "--beta" && i + 1 < argc) {
      options.params.beta = std::strtod(argv[++i], nullptr);
    } else if (arg == "--remove-policy" && i + 1 < argc) {
      options.remove_policy = argv[++i];
      if (options.remove_policy != "exact" && options.remove_policy != "rebuild" &&
          options.remove_policy != "compensated") {
        return usage();
      }
    } else {
      return usage();
    }
  }
  if (options.threads == 0) {
    options.threads = std::max(1u, std::thread::hardware_concurrency());
  }

  try {
    options.params.validate();
    const std::vector<ScenarioSpec> grid = experiment_grid(options);
    std::cerr << "running " << grid.size() << " scenarios on " << options.threads
              << " threads (" << (options.quick ? "quick" : "full") << " grid)\n";
    Stopwatch watch;
    const std::vector<ScenarioResult> results =
        run_experiment_grid(grid, options.params, options.threads, options.repeat);
    const double total_ms = watch.elapsed_ms();

    int failures = 0;
    for (const ScenarioResult& result : results) {
      if (result.ok && result.spec.is_service()) {
        std::cerr << "  " << result.spec.name() << ": " << result.dynamic.events
                  << " events at " << result.dynamic.events_per_sec << " events/sec ("
                  << result.dynamic.shards << " shards, p99 "
                  << result.dynamic.latency_p99_ms << " ms), "
                  << result.dynamic.final_colors << " final colors"
                  << (result.dynamic.oracle_identical ? "" : " [ORACLE MISMATCH]")
                  << (result.valid ? "" : " [INVALID FINAL STATE]") << '\n';
      } else if (result.ok && result.spec.is_dynamic()) {
        std::cerr << "  " << result.spec.name() << ": " << result.dynamic.events
                  << " events at " << result.dynamic.events_per_sec << " events/sec, "
                  << result.dynamic.final_colors << " final colors, "
                  << result.dynamic.migrations << " migrations"
                  << (result.valid ? "" : " [INVALID FINAL STATE]") << '\n';
      } else if (result.ok) {
        std::cerr << "  " << result.spec.name() << ": greedy " << result.greedy.colors
                  << " colors, speedup " << result.greedy.speedup << "x"
                  << (result.greedy.identical ? "" : " [ENGINES DISAGREE]")
                  << (result.valid ? "" : " [INVALID SCHEDULE]") << '\n';
      } else {
        std::cerr << "  " << result.spec.name() << ": FAILED: " << result.error << '\n';
      }
      // Engine disagreement and invalid schedules are wrong-answer
      // regressions — exactly what the runner exists to catch; they fail
      // the exit status and summary.failures alike.
      if (scenario_failed(result)) ++failures;
    }

    const JsonValue report = experiment_report(results, options);
    std::ofstream out(out_path);
    if (!out) {
      std::cerr << "error: cannot open " << out_path << " for writing\n";
      return 1;
    }
    out << report.dump() << '\n';
    std::cerr << "wrote " << out_path << " (" << results.size() << " scenarios, "
              << total_ms << " ms)\n";
    return failures == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
}
