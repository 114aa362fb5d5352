// Bounded-length mobility: the service-mobility workload's trace.
//
// Links arrive and depart as Poisson churn, and a third Poisson stream
// moves active links, at the rates of the library's waypoint model
// (waypoint_trace's defaults: holding time 8, arrivals n / 16, moves n / 2,
// so about 80% of the events are moves). A move shifts the sender by a
// bounded step and places the receiver at a length within a fixed factor
// of the link's initial length, so links stay radio links as they move —
// unlike the library's waypoint and commuter generators, whose links
// stretch about 30x and leave roughly one link per color. Every endpoint a
// move produces is a node the generator places in the Euclidean metric it
// builds, so the instance's metric covers the whole trace.
#ifndef OISCHED_PERFBENCH_MOBILITY_H
#define OISCHED_PERFBENCH_MOBILITY_H

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "core/instance.h"
#include "gen/churn.h"
#include "metric/euclidean.h"

namespace perfbench {

struct MobilityWorkload {
  std::shared_ptr<const oisched::EuclideanMetric> metric;
  std::unique_ptr<oisched::Instance> instance;
  oisched::ChurnTrace trace;
  std::size_t moves = 0;
  /// Mean over moved links of final length / initial length.
  double mean_length_drift = 0.0;
};

/// `links` links, `events` events, all drawn from `seed`.
[[nodiscard]] MobilityWorkload bounded_mobility(std::size_t links, std::size_t events,
                                                std::uint64_t seed);

/// Checks the trace: ChurnTrace::validate(), the move share of the
/// waypoint mix, and a mean length drift inside [1 / 1.1, 1.1] (a walk
/// pushed toward either end of the length window leaves that band).
/// Returns an empty string when they hold, else what failed.
[[nodiscard]] std::string check_mobility(const MobilityWorkload& workload);

}  // namespace perfbench

#endif  // OISCHED_PERFBENCH_MOBILITY_H
