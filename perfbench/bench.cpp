#include "bench.h"

#include <sys/resource.h>

#include <ctime>
#include <iostream>

#include "core/power_assignment.h"
#include "measure.h"
#include "util/rng.h"

namespace perfbench {

using namespace oisched;

void Report::add(std::string name, double value, std::string unit) {
  metrics.push_back(Metric{std::move(name), value, std::move(unit)});
}

void Report::fail(const std::string& why) {
  correct = false;
  std::cerr << "perfbench: INCORRECT: " << why << '\n';
}

void Report::expect(bool ok, const std::string& what) {
  if (!ok) fail(what);
}

const SinrParams& params() {
  static const SinrParams p{};
  return p;
}

std::vector<double> sqrt_powers(const Instance& instance) {
  return SqrtPower().assign(instance, params().alpha);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

long involuntary_switches() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_nivcsw;
}

double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

void time_setup(const std::function<double()>& build, std::size_t min_reps,
                std::vector<double>& samples) {
  double total = 0.0;
  for (std::size_t reps = 0; reps < min_reps || (total < 0.5 && reps < 15); ++reps) {
    samples.push_back(build());
    total += samples.back();
  }
}

std::uint64_t instance_seed(std::uint64_t seed, std::size_t k) {
  std::uint64_t state = seed * 0x9e3779b97f4a7c15ULL + k;
  return splitmix64(state);
}

void add_end_to_end(const EndToEnd& e2e, Report& report) {
  report.add("setup_s", e2e.setup_s, "s");
  report.add("peak_rss_mb", e2e.peak_rss_mb, "MB");
  report.add("events_per_s", e2e.events_per_s, "events/s");
  report.add("event_p50_us", e2e.event_p50_us, "us");
  report.add("event_p90_us", e2e.event_p90_us, "us");
  report.add("colors_final", e2e.colors_final, "count");
}

}  // namespace perfbench
