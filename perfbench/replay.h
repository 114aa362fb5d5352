// Closed-loop replays through one OnlineScheduler, timed per apply(), and
// the online layer's per-layer report built from them.
#ifndef OISCHED_PERFBENCH_REPLAY_H
#define OISCHED_PERFBENCH_REPLAY_H

#include <span>
#include <vector>

#include "bench.h"
#include "gen/churn.h"
#include "obs/trace.h"
#include "online/online_scheduler.h"

namespace perfbench {

/// One closed-loop pass over a stream: each apply() is timed on its own.
struct Replay {
  double wall_s = 0.0;
  std::vector<double> event_us;
  std::vector<double> cpu_us;  // filled when thread CPU time is sampled
  double cpu_s = 0.0;          // sum of cpu_us, in seconds
  double probes = 0.0;         // sum over arrivals of first-fit color + 1
  std::size_t arrivals = 0;
  /// Colors in use, averaged over the stream's last tenth: the final
  /// count without the jitter of whichever event happens to come last.
  double final_colors = 0.0;
  std::size_t failed = 0;

  [[nodiscard]] double events_per_s() const {
    return static_cast<double>(event_us.size()) / wall_s;
  }
  /// apply() calls per second of the calling thread's CPU time inside them.
  [[nodiscard]] double events_per_cpu_s() const {
    return static_cast<double>(cpu_us.size()) / cpu_s;
  }
};

/// Applies `events` in order. With a track, each call is also recorded as
/// an "apply" span there — the parent of the spans the scheduler emits on
/// the same track.
[[nodiscard]] Replay replay(oisched::OnlineScheduler& scheduler,
                            std::span<const oisched::ChurnEvent> events,
                            oisched::obs::TraceTrack* track = nullptr,
                            bool sample_cpu = false);

/// The online layer's per-layer metrics over one or more event streams
/// (one per service shard): each stream replays through a fresh scheduler
/// untraced (per-kind latencies, first-fit probes), then with the
/// scheduler's spans on beneath per-call "apply" spans (span self times,
/// counters, thread CPU time), then untraced again; the two untraced
/// passes are the overhead base. Final states must re-validate against
/// the direct engine and agree.
void report_online_layers(const oisched::Instance& instance, std::span<const double> powers,
                          const oisched::OnlineSchedulerOptions& options,
                          std::span<const std::vector<oisched::ChurnEvent>> streams,
                          Report& report);

}  // namespace perfbench

#endif  // OISCHED_PERFBENCH_REPLAY_H
