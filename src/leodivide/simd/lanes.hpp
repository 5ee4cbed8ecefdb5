#pragma once
// Portable fixed-width SIMD lanes on the GCC/Clang vector extension, with a
// compile-time-selected scalar fallback. No intrinsics headers and no
// target-specific code here: a DoubleLanes<W>::V is a W-wide double vector
// whose +, -, and * operators are per-lane IEEE-754 operations,
// and the compiler legalizes any width for the target it was given (a
// 4-wide vector compiles to two SSE2 ops on baseline x86-64, one AVX op
// when the TU is built with -mavx2, and scalar code elsewhere).
//
// Determinism contract: per-lane vector arithmetic is bit-identical to the
// equivalent scalar expression as long as floating-point contraction is off
// — the top-level build sets -ffp-contract=off globally so a fused
// multiply-add can never creep into one side of a scalar-vs-SIMD
// comparison. Reduction order is the kernel author's responsibility: fix
// the lane order explicitly (lane 0 first) instead of tree-reducing.
//
// Width selection: kernels TUs pick kPreferredLanes, which honours a
// per-TU -DLEODIVIDE_SIMD_WIDTH=<1|2|4|8> override, otherwise defaults to
// 8-wide under AVX-512, 4-wide when the vector extension is available, and
// 1 (scalar fallback) on compilers without the extension. The constant has
// internal linkage on purpose: TUs compiled with different target flags
// each get their own value, and nothing flag-dependent is exported inline.

#include <cstddef>
#include <cstring>

namespace leodivide::simd {

#if defined(__GNUC__) || defined(__clang__)
#define LEODIVIDE_SIMD_VECTOR_EXT 1
#endif

/// W-wide double lanes. Only the widths the extension supports are
/// specialized; DoubleLanes<1> is the scalar fallback so width-generic
/// kernels compile everywhere.
template <std::size_t W>
struct DoubleLanes;

template <>
struct DoubleLanes<1> {
  using V = double;
  static V load(const double* p) noexcept { return *p; }
  static void store(double* p, V v) noexcept { *p = v; }
  static V splat(double x) noexcept { return x; }
};

#ifdef LEODIVIDE_SIMD_VECTOR_EXT

namespace detail {

/// Shared implementation for the vector-extension widths. memcpy-based
/// load/store keeps unaligned access well-defined (it compiles to a single
/// unaligned vector move).
template <typename Vec, std::size_t W>
struct VectorLanes {
  using V = Vec;
  static V load(const double* p) noexcept {
    V v;
    std::memcpy(&v, p, sizeof v);
    return v;
  }
  static void store(double* p, V v) noexcept { std::memcpy(p, &v, sizeof v); }
  static V splat(double x) noexcept {
    V v;
    for (std::size_t i = 0; i < W; ++i) v[i] = x;
    return v;
  }
};

using V2 = double __attribute__((vector_size(16)));
using V4 = double __attribute__((vector_size(32)));
using V8 = double __attribute__((vector_size(64)));

}  // namespace detail

template <>
struct DoubleLanes<2> : detail::VectorLanes<detail::V2, 2> {};
template <>
struct DoubleLanes<4> : detail::VectorLanes<detail::V4, 4> {};
template <>
struct DoubleLanes<8> : detail::VectorLanes<detail::V8, 8> {};

#endif  // LEODIVIDE_SIMD_VECTOR_EXT

/// Lane width this TU should use. Internal linkage (constexpr namespace
/// variable) so per-TU target flags cannot cause an ODR mismatch.
#if defined(LEODIVIDE_SIMD_WIDTH)
constexpr std::size_t kPreferredLanes = LEODIVIDE_SIMD_WIDTH;
#elif defined(LEODIVIDE_SIMD_VECTOR_EXT) && defined(__AVX512F__)
constexpr std::size_t kPreferredLanes = 8;
#elif defined(LEODIVIDE_SIMD_VECTOR_EXT)
constexpr std::size_t kPreferredLanes = 4;
#else
constexpr std::size_t kPreferredLanes = 1;
#endif

static_assert(kPreferredLanes == 1 || kPreferredLanes == 2 ||
                  kPreferredLanes == 4 || kPreferredLanes == 8,
              "LEODIVIDE_SIMD_WIDTH must be 1, 2, 4 or 8");

}  // namespace leodivide::simd
