// A distributed coloring protocol — the Section-6 open problem, attempted.
//
// "The presented coloring algorithm ... is centralized. It is an open
// question whether there is a distributed coloring procedure that achieves
// the same kind of performance guarantee."
//
// This module implements the natural contender: slotted ALOHA with
// multiplicative backoff under an oblivious power assignment. Every request
// runs the same code with no global knowledge: transmit in each slot with
// the current access probability; on a failed attempt, back off; on
// sensing an idle slot, recover. A request that decodes successfully
// retires, and the slot index becomes its color.
//
// The produced coloring is always valid: the pairs that succeeded in one
// slot satisfied their SINR constraints *in the presence of* the failed
// transmitters of that slot, so a-fortiori they are feasible alone.
//
// No polylog guarantee is claimed (that is exactly the open problem); the
// benchmark measures how far the protocol lands from the centralized
// Section-5 algorithm.
#ifndef OISCHED_CORE_DISTRIBUTED_H
#define OISCHED_CORE_DISTRIBUTED_H

#include <cstdint>
#include <span>

#include "core/instance.h"
#include "core/schedule.h"
#include "sinr/gain_matrix.h"

namespace oisched {

struct DistributedOptions {
  std::uint64_t seed = 1;
  double initial_probability = 0.5;
  double backoff = 0.5;        // multiplicative decrease after a failed attempt
  double recovery = 1.2;       // multiplicative increase after an idle slot
  double min_probability = 1e-3;
  double max_probability = 0.5;
  int max_slots = 1 << 20;     // safety bound; the protocol drains long before
  /// gain_matrix answers the per-slot SINR checks from precomputed tables;
  /// any other value recomputes from the metric. Identical results.
  FeasibilityEngine engine = FeasibilityEngine::gain_matrix;
};

struct DistributedResult {
  Schedule schedule;                 // color = slot of successful delivery
  std::size_t slots = 0;             // slots until the last request drained
  std::size_t transmissions = 0;     // total attempts (energy/contention proxy)
  std::size_t collisions = 0;        // failed attempts
  bool drained = false;              // all requests delivered within max_slots
};

/// Runs the protocol until every request has been delivered once (or
/// max_slots elapse). `powers` is the oblivious assignment all stations
/// use, e.g. SqrtPower{}.assign(...).
[[nodiscard]] DistributedResult distributed_coloring(
    const Instance& instance, std::span<const double> powers, const SinrParams& params,
    Variant variant, const DistributedOptions& options = {});

}  // namespace oisched

#endif  // OISCHED_CORE_DISTRIBUTED_H
