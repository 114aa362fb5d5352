// Structure-of-arrays bank of exact accumulator slots.
//
// The exact remove policy keeps one error-free expansion per accumulator
// slot (see util/exact_sum.h). As a vector<ExactSum> that is an array of
// ~100-byte objects, each with heap-capable component storage and a
// separate rounded readout pass — the dominant cost of exact-policy
// admissions and departures. ExactSumBank is the same mathematics in the
// layout the row walk wants (the ECS component-storage idiom): the k-th
// expansion component of every slot lives in one flat array, the per-slot
// component count in another, so a row update streams contiguous memory.
//
// The fast path covers expansions of <= 4 components with all-finite
// state — in practice, effectively every slot. Rarer states (more
// components, infinities/NaN bookkeeping, sticky saturation) spill to a
// real ExactSum in a side map and migrate back when they re-enter the
// fast regime. Crucially the bank's update is the SAME derivation as
// ExactSum::add — a two-sum grow chain followed by the COMPRESS
// renormalization — so a slot's representation stays bit-identical to
// what a standalone ExactSum with the same history holds, and the
// rounded values it exposes are the unique correct rounding either way.
// The fused add-round readout folds the compressed registers straight to
// the rounded double, so exact-policy slots neither allocate nor re-read
// memory to publish their value.
#ifndef OISCHED_UTIL_EXACT_BANK_H
#define OISCHED_UTIL_EXACT_BANK_H

#include <array>
#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "util/exact_sum.h"

namespace oisched {

class ExactSumBank {
 public:
  /// Inline expansion components per slot. Gain sums compress to <= 4 in
  /// practice; longer expansions spill to the side map.
  static constexpr std::size_t kSlotComponents = 4;

  /// Resets to `n` zero slots (drops every spill).
  void assign_zero(std::size_t n);
  /// Grows to `n` slots, new slots zero; existing state is untouched.
  void resize(std::size_t n);
  [[nodiscard]] std::size_t size() const noexcept { return count_.size(); }

  /// Accumulates x into slot i exactly; returns the slot's new correctly
  /// rounded value (what ExactSum::add + value() would produce, bit for
  /// bit).
  double add(std::size_t i, double x);
  /// Removes x from slot i exactly — the inverse of add(i, x).
  double subtract(std::size_t i, double x);

  /// The slot's current correctly rounded value.
  [[nodiscard]] double value(std::size_t i) const;
  /// True once the slot's finite accumulation overflowed the double range
  /// (sticky, like ExactSum::saturated — the caller's rebuild escape
  /// hatch).
  [[nodiscard]] bool saturated(std::size_t i) const;

  /// Replaces slot i's state with `sum` (the re-derive path).
  void store(std::size_t i, const ExactSum& sum);

  /// A standalone copy of slot i's exact state — the inverse of store:
  /// bit-identical to the ExactSum a standalone accumulator with the same
  /// history holds. The far-field fallback path extends the copy with the
  /// distant members' gains to reconstruct a full-row exact sum.
  [[nodiscard]] ExactSum extract(std::size_t i) const;

  /// Row updates: slots [base, base + len) accumulate row[0..len) and the
  /// rounded values land in acc[base..base + len) — acc is the full
  /// mirror array, absolute-indexed like the slots. Returns true when any
  /// touched slot is left saturated (the caller then rebuilds).
  bool add_row(std::size_t base, const double* row, std::size_t len, double* acc);
  bool sub_row(std::size_t base, const double* row, std::size_t len, double* acc);

  /// Slots currently living in the spill map — observability for tests.
  [[nodiscard]] std::size_t spilled_slots() const noexcept { return spill_.size(); }

 private:
  static constexpr std::uint8_t kSpilled = 0xFF;

  /// One finite add/subtract on a fast-path slot, returning the fused
  /// rounded readout; spills when the result leaves the fast regime.
  double slot_op(std::size_t i, double x);
  /// Routes an op through the slot's spilled ExactSum (migrating the
  /// inline expansion out first if needed), then migrates back if the
  /// result re-enters the fast regime.
  double spill_op(std::size_t i, double x, bool subtract_op);
  [[nodiscard]] double fused_value(std::size_t i) const;
  [[nodiscard]] bool slot_saturated_after_op(std::size_t i) const;

  bool row_op(std::size_t base, const double* row, std::size_t len, double* acc,
              bool subtract_op);

  /// comp_[k][i] = k-th expansion component of slot i, meaningful below
  /// the slot's count only.
  std::array<std::vector<double>, kSlotComponents> comp_;
  /// Components in use per slot, or kSpilled.
  std::vector<std::uint8_t> count_;
  /// Slow slots: long expansions, infinity/NaN bookkeeping, saturation.
  std::unordered_map<std::size_t, ExactSum> spill_;
};

}  // namespace oisched

#endif  // OISCHED_UTIL_EXACT_BANK_H
