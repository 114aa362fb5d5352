// Storage policies for pairwise gain tables.
//
// Under the paper's oblivious power assignments a row of the table depends
// only on the link it describes, so a table needs just two forms:
//
//   DenseGainStorage     every row built up front into one row-major
//                        buffer; exposes it so the hot path stays a raw
//                        load. A scheduler-owned table
//                        grows in place: a fresh link gets its row and
//                        column in amortized O(n), since its power depends
//                        only on its own length.
//   ComputedGainStorage  no table at all: entries are evaluated on demand,
//                        with a one-row cache so a row walk costs one
//                        filler pass. O(n) resident — what lets n >= 10^5
//                        universes replay (with the far field, sinr/farfield.h,
//                        answering most tests without touching a row).
//
// Entries are computed per element by a GainFiller, so both backends hold
// bit-for-bit the values the dense build would — backends differ in cost
// and residency, never in results.
#ifndef OISCHED_SINR_GAIN_STORAGE_H
#define OISCHED_SINR_GAIN_STORAGE_H

#include <cstddef>
#include <functional>
#include <span>
#include <string>
#include <vector>

namespace oisched {

/// Which storage policy a gain table lives in. Both backends answer queries
/// bit-for-bit identically; they differ in memory residency.
enum class GainBackend {
  /// Contiguous row-major array, filled eagerly. O(n^2) resident; the
  /// fastest lookups, the default, and the only backend that can be shared
  /// or grown.
  dense,
  /// No table at all: every entry is evaluated through the filler on
  /// demand, with a single-row cache so a row walk costs one filler pass.
  /// O(n) resident. Not thread-safe (the row cache has one owner).
  computed,
};

/// Human-readable backend name ("dense" / "computed").
[[nodiscard]] const char* to_string(GainBackend backend);

/// Parses a backend name (as printed by to_string); returns false on an
/// unknown word.
[[nodiscard]] bool parse_gain_backend(const std::string& word, GainBackend& backend);

/// Computes one table entry. Must be pure (same (j, i) -> same double) and
/// return 0.0 on the diagonal; the computed backend keeps it alive and calls
/// it long after construction.
using GainFiller = std::function<double(std::size_t j, std::size_t i)>;

/// Eager contiguous table. A fixed universe keeps row stride == n and
/// exactly n^2 doubles; append() grows the capacity geometrically, so a
/// fresh link costs amortized O(n).
///
/// Both storage classes return row j in full from row() (size() entries;
/// entry j is 0.0) — the one span every accumulator row walk reads.
class DenseGainStorage {
 public:
  /// Adopts an already-filled row-major table (n * n entries) — the fused
  /// native build, which skips the per-element filler dispatch.
  DenseGainStorage(std::size_t n, std::vector<double> data);

  /// Current number of rows (== columns).
  [[nodiscard]] std::size_t size() const noexcept { return n_; }
  [[nodiscard]] double at(std::size_t j, std::size_t i) const {
    return data_[j * stride_ + i];
  }
  /// Valid until the next growth.
  [[nodiscard]] std::span<const double> row(std::size_t j) const {
    return {data_.data() + j * stride_, n_};
  }
  /// Doubles resident in the buffer: stride()^2, so n^2 until the first
  /// append.
  [[nodiscard]] std::size_t resident_doubles() const noexcept { return data_.size(); }
  /// Recomputes row `link` and column `link` through `fill` — the
  /// endpoint-motion path. The caller has already updated the request and
  /// power stores the filler captures. NOT thread-safe against concurrent
  /// reads; the online scheduler (the only mutating owner) is
  /// single-threaded per instance.
  void refresh_link(std::size_t link, const GainFiller& fill);

  /// Extends the table by one link: the fresh column of every existing row,
  /// then the fresh row, through `fill` (which must already see the grown
  /// request universe). Reallocates only when the capacity runs out, to
  /// stride 1.5x — so the first append to an n-link table leaves 2.25 n^2
  /// doubles resident, and the copy briefly holds both buffers (~3.25 n^2).
  /// Invalidates data() and every row span when it reallocates.
  void append(const GainFiller& fill);

  /// Row-major buffer, row j at data() + j * stride().
  [[nodiscard]] const double* data() const noexcept { return data_.data(); }
  [[nodiscard]] std::size_t stride() const noexcept { return stride_; }

 private:
  std::size_t n_;
  std::size_t stride_;
  std::vector<double> data_;
};

/// Tableless storage: entries are recomputed through the filler on every
/// query. A one-row cache, allocated once at construction, makes row walks
/// affordable — row(j) materializes row j once and serves every later read
/// of the same row from the cache, so a feasibility scan over k classes
/// costs one filler pass per candidate row, not k. NOT thread-safe (mutable
/// cache, no locks); the online scheduler is its only intended owner.
/// resident_doubles() reads nothing the cache writes, so it is safe to
/// sample while the owner runs.
class ComputedGainStorage {
 public:
  ComputedGainStorage(std::size_t n, GainFiller fill);

  [[nodiscard]] std::size_t size() const noexcept { return n_; }
  [[nodiscard]] double at(std::size_t j, std::size_t i) const {
    return (i == j) ? 0.0 : fill_(j, i);
  }
  /// Row j in full, served from the cache — valid until the next row()
  /// call.
  [[nodiscard]] std::span<const double> row(std::size_t j) const;
  /// The row cache's fixed size.
  [[nodiscard]] std::size_t resident_doubles() const noexcept { return n_; }
  /// Endpoint motion of `link`: nothing resident to rewrite (the stored
  /// filler reads the updated request and power stores), so this only
  /// drops the cached row.
  void refresh_link(std::size_t link);

  /// Row materializations so far — how often the cache missed.
  [[nodiscard]] std::size_t rows_materialized() const noexcept {
    return rows_materialized_;
  }

 private:
  static constexpr std::size_t kNoRow = static_cast<std::size_t>(-1);

  std::size_t n_;
  GainFiller fill_;
  mutable std::vector<double> cache_;
  mutable std::size_t cache_row_ = kNoRow;
  mutable std::size_t rows_materialized_ = 0;
};

}  // namespace oisched

#endif  // OISCHED_SINR_GAIN_STORAGE_H
