#include "core/instance.h"

#include <algorithm>
#include <cmath>
#include <mutex>
#include <numeric>

#include "sinr/gain_matrix.h"
#include "util/error.h"

namespace oisched {

/// Shared (across copies) cache of gain tables. Every entry owns the
/// metric handle (the matrix itself copies the requests and powers), so a
/// GainMatrix handed out stays valid regardless of eviction or the
/// originating Instance's lifetime. Entries are inserted key-only under the
/// list mutex and built afterwards through a per-entry once_flag — the
/// O(n^2) cold build never holds the cache lock, so hits on other keys
/// proceed while a miss builds (ROADMAP's cold-build serialization item).
struct Instance::GainCache {
  struct Entry {
    std::shared_ptr<const MetricSpace> metric;
    std::vector<double> powers;
    double alpha = 0.0;
    Variant variant = Variant::directed;
    bool with_sender_gains = false;
    std::once_flag built;
    std::unique_ptr<const GainMatrix> gains;  // set exactly once via `built`

    [[nodiscard]] bool matches(std::span<const double> p, double a, Variant v,
                               bool sender) const {
      return a == alpha && v == variant && sender == with_sender_gains &&
             std::equal(p.begin(), p.end(), powers.begin(), powers.end());
    }
  };

  /// Bounds the O(n^2)-sized tables kept alive per instance; in practice an
  /// instance sees at most (powers x variant x sender gains) ~ 2-4 distinct
  /// keys.
  static constexpr std::size_t kMaxEntries = 4;

  std::mutex mutex;
  std::vector<std::shared_ptr<Entry>> entries;  // most recently used first
};

Instance::Instance(std::shared_ptr<const MetricSpace> metric, std::vector<Request> requests)
    : metric_(std::move(metric)),
      requests_(std::move(requests)),
      gain_cache_(std::make_shared<GainCache>()) {
  require(metric_ != nullptr, "Instance: metric must be set");
  lengths_.reserve(requests_.size());
  for (const Request& r : requests_) {
    require(r.u < metric_->size() && r.v < metric_->size(),
            "Instance: request endpoint out of metric range");
    const double d = metric_->distance(r.u, r.v);
    require(std::isfinite(d) && d > 0.0,
            "Instance: request endpoints must be distinct points at finite distance");
    lengths_.push_back(d);
  }
}

std::shared_ptr<const GainMatrix> Instance::gains(std::span<const double> powers,
                                                  double alpha, Variant variant,
                                                  bool with_sender_gains) const {
  require(powers.size() == requests_.size(), "Instance::gains: one power per request");
  // The bidirectional variant always builds the sender-side table, so the
  // flag changes nothing there — normalize it out of the key to avoid a
  // bit-identical duplicate build.
  if (variant == Variant::bidirectional) with_sender_gains = false;
  std::shared_ptr<GainCache::Entry> entry;
  {
    std::lock_guard<std::mutex> lock(gain_cache_->mutex);
    auto& entries = gain_cache_->entries;
    for (std::size_t k = 0; k < entries.size(); ++k) {
      if (entries[k]->matches(powers, alpha, variant, with_sender_gains)) {
        if (k != 0) {
          std::rotate(entries.begin(), entries.begin() + k, entries.begin() + k + 1);
        }
        entry = entries.front();
        break;
      }
    }
    if (entry == nullptr) {
      // Insert the key only; the build happens below, outside the lock.
      entry = std::make_shared<GainCache::Entry>();
      entry->metric = metric_;
      entry->powers.assign(powers.begin(), powers.end());
      entry->alpha = alpha;
      entry->variant = variant;
      entry->with_sender_gains = with_sender_gains;
      entries.insert(entries.begin(), entry);
      // Eviction is safe mid-build elsewhere: every caller of an entry holds
      // its shared_ptr, so a popped entry finishes building and stays valid
      // for them.
      if (entries.size() > GainCache::kMaxEntries) entries.pop_back();
    }
  }
  // Per-entry once-initialization: only callers of THIS key wait here;
  // a failed build leaves the flag unset so the next caller retries.
  std::call_once(entry->built, [&] {
    entry->gains = std::make_unique<const GainMatrix>(
        *entry->metric, requests_, entry->powers, entry->alpha, entry->variant,
        entry->with_sender_gains);
  });
  // The aliasing shared_ptr pins the whole entry (metric handle and the
  // matrix's own request/power copies) for as long as any caller holds it.
  return std::shared_ptr<const GainMatrix>(entry, entry->gains.get());
}

std::size_t Instance::cached_gain_tables() const {
  std::lock_guard<std::mutex> lock(gain_cache_->mutex);
  return gain_cache_->entries.size();
}

const Request& Instance::request(std::size_t i) const {
  require(i < requests_.size(), "Instance: request index out of range");
  return requests_[i];
}

double Instance::length(std::size_t i) const {
  require(i < lengths_.size(), "Instance: request index out of range");
  return lengths_[i];
}

double Instance::loss(std::size_t i, double alpha) const {
  return path_loss(length(i), alpha);
}

std::vector<std::size_t> Instance::all_indices() const {
  std::vector<std::size_t> idx(requests_.size());
  std::iota(idx.begin(), idx.end(), std::size_t{0});
  return idx;
}

}  // namespace oisched
