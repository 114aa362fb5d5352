// Shared pieces of the benchmark's workloads: run options, the result
// report, process-level probes (peak RSS, context switches, thread CPU
// time), and the paper's model constants every workload schedules under.
#ifndef OISCHED_PERFBENCH_BENCH_H
#define OISCHED_PERFBENCH_BENCH_H

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/instance.h"
#include "sinr/model.h"
#include "util/stopwatch.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  // measured time budget of one run
  bool trace = false;     // per-layer run (spans on, twins timed)
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run prints: the correctness verdict, operation accounting and
/// the metrics of its mode (end-to-end untraced, per-layer traced).
struct Report {
  bool correct = true;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<Metric> metrics;

  void add(std::string name, double value, std::string unit);
  /// Marks the run incorrect and says why on stderr.
  void fail(const std::string& why);
  /// Marks the run incorrect unless `ok`.
  void expect(bool ok, const std::string& what);
};

// The paper's model: alpha = 3, beta = 1, no noise; the square-root
// assignment (its Theorem 2 power) on the bidirectional variant.
inline constexpr oisched::Variant kVariant = oisched::Variant::bidirectional;
[[nodiscard]] const oisched::SinrParams& params();
[[nodiscard]] std::vector<double> sqrt_powers(const oisched::Instance& instance);

/// Process peak resident set so far (getrusage), in MB.
[[nodiscard]] double peak_rss_mb();
/// Involuntary context switches of the process so far (getrusage).
[[nodiscard]] long involuntary_switches();
/// Calling thread's CPU time, in seconds.
[[nodiscard]] double thread_cpu_seconds();

using oisched::Stopwatch;

/// Times a set-up: `build` discards what the previous call made,
/// constructs it afresh and returns the seconds the construction took.
/// It runs at least `min_reps` times, and more (up to 15) while the
/// builds have taken under half a second, so a cheap set-up still gets a
/// steady median. Appends each time to `samples`; the last build's
/// objects stay live.
void time_setup(const std::function<double()>& build, std::size_t min_reps,
                std::vector<double>& samples);

/// Seed of the k-th instance a run draws: runs pool several instances so
/// one unusual geometry moves the figures less.
[[nodiscard]] std::uint64_t instance_seed(std::uint64_t seed, std::size_t k);

/// The six end-to-end metrics every workload reports.
struct EndToEnd {
  double setup_s = 0.0;
  double peak_rss_mb = 0.0;
  double events_per_s = 0.0;
  double event_p50_us = 0.0;
  double event_p90_us = 0.0;
  double colors_final = 0.0;
};
void add_end_to_end(const EndToEnd& e2e, Report& report);

Report run_offline(const RunOptions& options);
Report run_churn(const RunOptions& options);
Report run_farfield(const RunOptions& options);
Report run_service(const RunOptions& options);

}  // namespace perfbench

#endif  // OISCHED_PERFBENCH_BENCH_H
