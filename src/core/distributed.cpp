#include "core/distributed.h"

#include <algorithm>
#include <optional>
#include <vector>

#include "sinr/feasibility.h"
#include "util/error.h"
#include "util/rng.h"

namespace oisched {

DistributedResult distributed_coloring(const Instance& instance,
                                       std::span<const double> powers,
                                       const SinrParams& params, Variant variant,
                                       const DistributedOptions& options) {
  require(powers.size() == instance.size(), "distributed_coloring: power per request");
  require(options.initial_probability > 0.0 && options.initial_probability <= 1.0,
          "distributed_coloring: initial probability must lie in (0, 1]");
  require(options.backoff > 0.0 && options.backoff < 1.0,
          "distributed_coloring: backoff must lie in (0, 1)");
  require(options.recovery >= 1.0, "distributed_coloring: recovery must be >= 1");
  params.validate();

  DistributedResult result;
  result.schedule.color_of.assign(instance.size(), -1);

  std::shared_ptr<const GainMatrix> gains;
  if (options.engine == FeasibilityEngine::gain_matrix) {
    gains = instance.gains(powers, params.alpha, variant);
  }

  Rng rng(options.seed);
  std::vector<double> probability(instance.size(), options.initial_probability);
  std::size_t remaining = instance.size();
  int last_used_slot = -1;

  for (int slot = 0; slot < options.max_slots && remaining > 0; ++slot) {
    // Contention: every active station flips its coin independently.
    std::vector<std::size_t> transmitting;
    for (std::size_t i = 0; i < instance.size(); ++i) {
      if (result.schedule.color_of[i] >= 0) continue;
      if (rng.bernoulli(probability[i])) transmitting.push_back(i);
    }
    if (transmitting.empty()) {
      // Idle slot: everyone senses silence and becomes more aggressive.
      for (std::size_t i = 0; i < instance.size(); ++i) {
        if (result.schedule.color_of[i] >= 0) continue;
        probability[i] =
            std::min(options.max_probability, probability[i] * options.recovery);
      }
      continue;
    }
    result.transmissions += transmitting.size();

    // Reception: each transmitting pair checks its own SINR constraints
    // against all simultaneous transmitters (purely local information).
    // The gain path sums the same precomputed contributions in the same
    // order interference_at would, so slot outcomes are bit-identical.
    auto slot_interference = [&](std::size_t pos, bool at_receiver) {
      if (gains) {
        const std::size_t i = transmitting[pos];
        double total = 0.0;
        for (std::size_t other = 0; other < transmitting.size(); ++other) {
          if (other == pos) continue;
          const std::size_t j = transmitting[other];
          total += at_receiver ? gains->at_v(j, i) : gains->at_u(j, i);
        }
        return total;
      }
      const Request& r = instance.request(transmitting[pos]);
      return interference_at(instance.metric(), instance.requests(), powers, transmitting,
                             at_receiver ? r.v : r.u, params.alpha, variant, pos);
    };
    for (std::size_t pos = 0; pos < transmitting.size(); ++pos) {
      const std::size_t i = transmitting[pos];
      const double signal = powers[i] / instance.loss(i, params.alpha);
      const double at_v = slot_interference(pos, true);
      bool ok = signal > params.beta * (at_v + params.noise);
      if (ok && variant == Variant::bidirectional) {
        const double at_u = slot_interference(pos, false);
        ok = signal > params.beta * (at_u + params.noise);
      }
      if (ok) {
        result.schedule.color_of[i] = slot;
        last_used_slot = std::max(last_used_slot, slot);
        --remaining;
      } else {
        ++result.collisions;
        probability[i] = std::max(options.min_probability,
                                  probability[i] * options.backoff);
      }
    }
  }

  result.schedule.num_colors = last_used_slot + 1;
  result.slots = static_cast<std::size_t>(last_used_slot + 1);
  result.drained = remaining == 0;
  return result;
}

}  // namespace oisched
