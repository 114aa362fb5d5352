// SoA row kernels for the accumulator hot path.
//
// Every admission, departure, and mobility event reduces to walking a
// contiguous gain-table row (GainMatrix::row_v / row_u) against the
// class's flat accumulator arrays. These kernels are that walk: plain
// add/subtract for the rebuild-policy accumulators, subtract-plus-
// cancellation for the compensated policy. They vectorize across *slots*
// — never across members — so each slot sees exactly the per-element
// operation sequence of the scalar loop and the results are bit-identical
// by construction (IEEE addition is applied lane-wise; no reassociation,
// no FMA contraction).
//
// The AVX2 paths compile in only when the build enables the native gate
// (cmake -DOISCHED_NATIVE=ON, which adds -march=native); the scalar
// fallback is the default build everywhere else. The *_scalar variants
// are always the plain loops — the reference the differential fuzz suite
// compares the dispatched kernels against bit for bit.
#ifndef OISCHED_SINR_ROW_KERNELS_H
#define OISCHED_SINR_ROW_KERNELS_H

#include <cstddef>

namespace oisched::kernels {

/// True when this build dispatches the AVX2 kernels (native gate enabled
/// and the compiler targets AVX2); false in the default scalar build.
[[nodiscard]] bool simd_active() noexcept;

/// acc[i] += row[i] for i in [0, n).
void acc_add_row(double* acc, const double* row, std::size_t n) noexcept;
/// acc[i] -= row[i] for i in [0, n).
void acc_sub_row(double* acc, const double* row, std::size_t n) noexcept;
/// Compensated removal: acc[i] -= row[i]; cancelled[i] += |row[i]|.
void acc_sub_row_cancel(double* acc, double* cancelled, const double* row,
                        std::size_t n) noexcept;

/// Always-scalar references for the differential suite.
void acc_add_row_scalar(double* acc, const double* row, std::size_t n) noexcept;
void acc_sub_row_scalar(double* acc, const double* row, std::size_t n) noexcept;
void acc_sub_row_cancel_scalar(double* acc, double* cancelled, const double* row,
                               std::size_t n) noexcept;

}  // namespace oisched::kernels

#endif  // OISCHED_SINR_ROW_KERNELS_H
