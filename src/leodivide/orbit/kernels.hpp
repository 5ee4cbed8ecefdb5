#pragma once
// The SIMD kernel of the pipeline: the batched Earth rotation applied to
// every satellite per epoch in propagate_all.
//
// The kernel is guaranteed bit-identical to its plain scalar loop: per-lane
// vector arithmetic is IEEE-identical to the scalar expression (the build
// disables FP contraction) and lane order is fixed. The scalar reference
// lives with the tests in tests/oracles/kernels_scalar.cpp, and
// tests/test_simd.cpp bit-compares the two on every tail length and in
// place. The SIMD code itself lives only in kernels.cpp — the one TU that
// may carry wider target flags — so nothing flag-dependent is ever inlined
// into other TUs.

#include <cstddef>

namespace leodivide::orbit {

/// Lane width compiled into the kernels TU (1 = scalar fallback).
[[nodiscard]] std::size_t kernel_lanes() noexcept;

/// Human-readable backend tag for bench labels, e.g. "vec4" or "scalar".
[[nodiscard]] const char* kernel_backend() noexcept;

/// Batched epoch rotation about the Earth axis, the expression of the
/// oracle::ecef_position test reference (tests/oracles) verbatim per element:
///   out_x[i] =  x[i] * c + y[i] * s
///   out_y[i] = -x[i] * s + y[i] * c
/// In-place operation (out_x == x, out_y == y) is supported: both inputs of
/// an element are loaded before either output is stored.
void rotate_about_z(const double* x, const double* y, double c, double s,
                    std::size_t n, double* out_x, double* out_y);

}  // namespace leodivide::orbit
