// An interference-scheduling instance: a metric space plus n requests.
#ifndef OISCHED_CORE_INSTANCE_H
#define OISCHED_CORE_INSTANCE_H

#include <memory>
#include <span>
#include <vector>

#include "metric/metric_space.h"
#include "sinr/model.h"

namespace oisched {

class GainMatrix;

/// Bundles the point set and the communication requests of one problem
/// instance. Immutable after construction; request lengths are precomputed.
///
/// Instances also own a small cache of GainMatrix tables keyed by
/// (powers, alpha, variant, sender-gains) — repeated queries across
/// algorithms and replay steps share one O(n^2) build instead of paying it
/// per call. Copies and moves share the cache (the underlying data is
/// immutable either way).
class Instance {
 public:
  Instance(std::shared_ptr<const MetricSpace> metric, std::vector<Request> requests);

  [[nodiscard]] const MetricSpace& metric() const noexcept { return *metric_; }
  [[nodiscard]] const std::shared_ptr<const MetricSpace>& metric_ptr() const noexcept {
    return metric_;
  }
  [[nodiscard]] std::span<const Request> requests() const noexcept { return requests_; }
  [[nodiscard]] const Request& request(std::size_t i) const;
  [[nodiscard]] std::size_t size() const noexcept { return requests_.size(); }

  /// Distance between the endpoints of request i.
  [[nodiscard]] double length(std::size_t i) const;
  /// Loss of request i's own link: length^alpha.
  [[nodiscard]] double loss(std::size_t i, double alpha) const;

  /// {0, 1, ..., size()-1}; handy for whole-instance algorithm calls.
  [[nodiscard]] std::vector<std::size_t> all_indices() const;

  /// The dense gain-matrix tables for (powers, alpha, variant,
  /// with_sender_gains), built on first use and cached (bitwise power
  /// equality keys the cache; a handful of entries are kept,
  /// least-recently-used first out; the sender-gains flag is ignored for
  /// the bidirectional variant, which always builds that table). The
  /// returned matrix owns copies of everything it references, so it stays
  /// valid even after eviction or the instance's destruction. Thread-safe,
  /// with per-entry once-initialization: a cold build runs outside the
  /// cache lock, so concurrent hits on other keys never wait behind a miss
  /// — only callers of the same key share (and wait for) its one build.
  /// Only dense tables are shared: growth, motion and the computed
  /// backend's row cache are single-owner, so a scheduler needing them
  /// constructs a GainMatrix directly.
  [[nodiscard]] std::shared_ptr<const GainMatrix> gains(
      std::span<const double> powers, double alpha, Variant variant,
      bool with_sender_gains = false) const;

  /// Number of gain tables currently cached (tests observe eviction).
  [[nodiscard]] std::size_t cached_gain_tables() const;

 private:
  struct GainCache;

  std::shared_ptr<const MetricSpace> metric_;
  std::vector<Request> requests_;
  std::vector<double> lengths_;
  std::shared_ptr<GainCache> gain_cache_;
};

}  // namespace oisched

#endif  // OISCHED_CORE_INSTANCE_H
