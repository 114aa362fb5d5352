// Differential suite for the SoA exact accumulator bank and the gain
// tables' row seam. The bank's row updates must match a vector<ExactSum>
// oracle bit for bit — on finite data, on NaN/inf rows, and through the
// spill/saturation regimes — and a table row must serve exactly the bytes
// at() serves on every backend. CI runs this suite in both the default
// and the host-tuned native build.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "sinr/gain_storage.h"
#include "test_helpers.h"
#include "util/exact_bank.h"
#include "util/exact_sum.h"
#include "util/rng.h"

namespace oisched {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kHuge = std::numeric_limits<double>::max();

/// Bit-level equality: NaNs with equal payloads compare equal, +0.0 and
/// -0.0 do not — the comparison the "bit for bit" promise actually means.
bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

std::vector<double> random_row(std::size_t n, Rng& rng) {
  std::vector<double> row(n);
  for (double& x : row) x = rng.uniform(-1e6, 1e6);
  return row;
}

/// A row salted with the full edge-case menagerie: zeros of both signs,
/// infinities, NaN, denormals, and near-overflow magnitudes.
std::vector<double> edge_row(std::size_t n, Rng& rng) {
  std::vector<double> row = random_row(n, rng);
  const std::vector<double> specials = {0.0,   -0.0,  kInf,    -kInf,
                                        kNaN,  5e-324, -5e-324, 0.5 * kHuge,
                                        -0.75 * kHuge};
  for (std::size_t k = 0; k < row.size(); ++k) {
    if (rng.bernoulli(0.4)) {
      row[k] = specials[rng.uniform_index(specials.size())];
    }
  }
  return row;
}

/// Drives a bank and a vector<ExactSum> oracle through the identical op
/// sequence and asserts, after every row update, that the bank's values
/// and the readouts it wrote into acc[base, base + len) are the oracle's
/// bit for bit, that acc outside the range is untouched, and that the
/// saturation state agrees.
void fuzz_bank_against_oracle(std::uint64_t seed, bool edge_rows) {
  Rng rng(seed);
  const std::size_t n = 24;
  ExactSumBank bank;
  bank.assign_zero(n);
  std::vector<ExactSum> oracle(n);
  std::vector<double> acc(n, 0.0);

  for (int round = 0; round < 60; ++round) {
    const std::size_t base = rng.uniform_index(n);
    const std::size_t len = 1 + rng.uniform_index(n - base);
    const std::vector<double> row =
        edge_rows ? edge_row(len, rng) : random_row(len, rng);
    const bool subtract = rng.bernoulli(0.5);
    const std::vector<double> acc_before = acc;
    bool saturated = false;
    if (subtract) {
      saturated = bank.sub_row(base, row.data(), len, acc.data());
      for (std::size_t k = 0; k < len; ++k) oracle[base + k].subtract(row[k]);
    } else {
      saturated = bank.add_row(base, row.data(), len, acc.data());
      for (std::size_t k = 0; k < len; ++k) oracle[base + k].add(row[k]);
    }
    bool oracle_saturated = false;
    for (std::size_t i = base; i < base + len; ++i) {
      oracle_saturated |= oracle[i].saturated();
    }
    ASSERT_EQ(saturated, oracle_saturated) << "round " << round;
    for (std::size_t i = 0; i < n; ++i) {
      const double expected = oracle[i].value();
      ASSERT_TRUE(same_bits(bank.value(i), expected))
          << "round " << round << " slot " << i;
      if (i >= base && i < base + len) {
        ASSERT_TRUE(same_bits(acc[i], expected))
            << "round " << round << " acc slot " << i;
      } else {
        ASSERT_TRUE(same_bits(acc[i], acc_before[i]))
            << "round " << round << " untouched acc slot " << i;
      }
      ASSERT_EQ(bank.saturated(i), oracle[i].saturated())
          << "round " << round << " slot " << i;
    }
  }
}

TEST(ExactSumBankDifferential, FiniteFuzzMatchesExactSumOracle) {
  for (std::uint64_t seed : {11u, 22u, 33u, 44u}) {
    fuzz_bank_against_oracle(seed, /*edge_rows=*/false);
  }
}

TEST(ExactSumBankDifferential, EdgeCaseFuzzMatchesExactSumOracle) {
  for (std::uint64_t seed : {55u, 66u, 77u, 88u}) {
    fuzz_bank_against_oracle(seed, /*edge_rows=*/true);
  }
}

TEST(ExactSumBank, InfinityBookkeepingIsReversible) {
  ExactSumBank bank;
  bank.assign_zero(4);
  std::vector<double> acc(4, 0.0);
  const double row1[] = {1.5, kInf, -kInf, kNaN};
  bank.add_row(0, row1, 4, acc.data());
  EXPECT_TRUE(same_bits(acc[0], 1.5));
  EXPECT_TRUE(same_bits(acc[1], kInf));
  EXPECT_TRUE(same_bits(acc[2], -kInf));
  EXPECT_TRUE(std::isnan(acc[3]));
  EXPECT_EQ(bank.spilled_slots(), 3u);  // the non-finite slots; 1.5 stays inline
  // Withdrawing the specials migrates the slots back to the fast regime —
  // exactly ExactSum's reversible counters — and subsequent finite sums
  // read as if the excursion never happened.
  bank.sub_row(0, row1, 4, acc.data());
  EXPECT_EQ(bank.spilled_slots(), 0u);
  const double row2[] = {0.25, -3.0, 7.0, 2.0};
  bank.add_row(0, row2, 4, acc.data());
  for (std::size_t i = 0; i < 4; ++i) {
    ExactSum ref;
    ref.add(row1[i]);
    ref.subtract(row1[i]);
    ref.add(row2[i]);
    EXPECT_TRUE(same_bits(bank.value(i), ref.value())) << "slot " << i;
    EXPECT_TRUE(same_bits(acc[i], ref.value())) << "slot " << i;
    EXPECT_FALSE(bank.saturated(i));
  }
}

TEST(ExactSumBank, StickySaturationMatchesExactSum) {
  ExactSumBank bank;
  bank.assign_zero(2);
  std::vector<double> acc(2, 0.0);
  ExactSum ref;
  // Two finite near-max addends overflow the double range: sticky
  // saturation, not an infinity count — subtracting one back must NOT
  // clear it, matching ExactSum exactly.
  const double row[] = {0.75 * kHuge, 1.0};
  bank.add_row(0, row, 2, acc.data());
  bank.add_row(0, row, 2, acc.data());
  ref.add(0.75 * kHuge);
  ref.add(0.75 * kHuge);
  EXPECT_TRUE(bank.saturated(0));
  EXPECT_TRUE(ref.saturated());
  EXPECT_TRUE(same_bits(bank.value(0), ref.value()));
  const double withdraw[] = {0.75 * kHuge, 0.0};
  EXPECT_TRUE(bank.sub_row(0, withdraw, 2, acc.data()));
  ref.subtract(0.75 * kHuge);
  EXPECT_TRUE(bank.saturated(0));  // sticky
  EXPECT_TRUE(ref.saturated());
  EXPECT_TRUE(same_bits(bank.value(0), ref.value()));
}

TEST(ExactSumBank, StoreRoundTripsLongAndNonFiniteSums) {
  ExactSumBank bank;
  bank.assign_zero(2);
  ExactSum long_sum;
  // Five pairwise non-overlapping magnitudes compress to > 4 components.
  for (const double x : {1e300, 1e200, 1e100, 1.0, 1e-100}) long_sum.add(x);
  ASSERT_GT(long_sum.component_count(), ExactSumBank::kSlotComponents);
  bank.store(0, long_sum);
  EXPECT_TRUE(same_bits(bank.value(0), long_sum.value()));
  EXPECT_EQ(bank.spilled_slots(), 1u);
  ExactSum small;
  small.add(2.5);
  bank.store(0, small);  // re-store shrinks back inline
  EXPECT_TRUE(same_bits(bank.value(0), 2.5));
  EXPECT_EQ(bank.spilled_slots(), 0u);
}

TEST(RowSeam, RowsServeExactlyTheBytesAtServes) {
  const std::size_t n = 140;
  const GainFiller fill = [](std::size_t j, std::size_t i) {
    return i == j ? 0.0 : 1.0 / (1.0 + static_cast<double>(j * 1000 + i));
  };
  const DenseGainStorage dense = testutil::dense_table(n, fill);
  const ComputedGainStorage computed(n, fill);
  // Grown from empty one link at a time: row stride past n, same bytes.
  DenseGainStorage grown(0, {});
  for (std::size_t k = 0; k < n; ++k) grown.append(fill);
  ASSERT_GT(grown.stride(), n);
  Rng rng(7);
  const auto probe = [&](const auto& storage) {
    for (int probes = 0; probes < 40; ++probes) {
      const std::size_t j = rng.uniform_index(n);
      const std::span<const double> row = storage.row(j);
      ASSERT_EQ(row.size(), n);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_TRUE(same_bits(row[i], storage.at(j, i))) << "row " << j << " col " << i;
        ASSERT_TRUE(same_bits(row[i], fill(j, i))) << "row " << j << " col " << i;
      }
    }
  };
  probe(dense);
  probe(computed);
  probe(grown);
}

}  // namespace
}  // namespace oisched
