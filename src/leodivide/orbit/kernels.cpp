#include "leodivide/orbit/kernels.hpp"

#include <bit>

#include "leodivide/simd/lanes.hpp"

#if defined(__SSE2__)
#include <immintrin.h>
#endif

// This is the only TU that instantiates SIMD code, and everything
// width-dependent stays in the anonymous namespace: the build may give this
// file wider target flags (see LEODIVIDE_KERNEL_NATIVE) without risking an
// ODR merge of flag-dependent inline code from other TUs.

namespace leodivide::orbit {

namespace {

constexpr std::size_t kW = simd::kPreferredLanes;

#ifdef LEODIVIDE_SIMD_VECTOR_EXT
/// Bitmask of the W comparison lanes: bit j is set iff lane j is all-ones.
/// Lane-by-lane extraction from a wide register compiles to a chain of
/// vpextrq + shifts that costs more than the dot product itself, so on x86
/// this is one movemask instruction (it reads the lanes' sign bits, which
/// a comparison result sets exactly); elsewhere the portable per-lane loop
/// remains.
template <std::size_t W>
unsigned mask_bits(typename simd::DoubleLanes<W>::M m) {
#if defined(__AVX__)
  if constexpr (W == 4) {
    return static_cast<unsigned>(
        _mm256_movemask_pd(std::bit_cast<__m256d>(m)));
  }
#endif
#if defined(__SSE2__)
  if constexpr (W == 2) {
    return static_cast<unsigned>(
        _mm_movemask_pd(std::bit_cast<__m128d>(m)));
  }
#endif
  unsigned bits = 0;
  for (std::size_t j = 0; j < W; ++j) {
    bits |= (m[j] != 0 ? 1u : 0u) << j;
  }
  return bits;
}
#endif

// Width-generic kernel bodies. They are templates so the scalar
// (W == 1) instantiation never touches the vector branches — `if constexpr`
// only discards statements inside a template.

template <std::size_t W>
std::size_t filter_visible_impl(double cx, double cy, double cz,
                                const double* ux, const double* uy,
                                const double* uz,
                                const std::uint32_t* candidates,
                                std::size_t n, double cos_psi,
                                std::uint32_t* out) {
  std::size_t kept = 0;
  std::size_t i = 0;
  if constexpr (W > 1) {
    using L = simd::DoubleLanes<W>;
    using V = typename L::V;
    const V vcx = L::splat(cx);
    const V vcy = L::splat(cy);
    const V vcz = L::splat(cz);
    const V vthresh = L::splat(cos_psi);
    double gx[W];
    double gy[W];
    double gz[W];
    for (; i + W <= n; i += W) {
      // Scalar gathers into lane temps (candidate indices are arbitrary),
      // then one vector dot + compare per W candidates.
      for (std::size_t j = 0; j < W; ++j) {
        const std::uint32_t si = candidates[i + j];
        gx[j] = ux[si];
        gy[j] = uy[si];
        gz[j] = uz[si];
      }
      const V dot = vcx * L::load(gx) + vcy * L::load(gy) + vcz * L::load(gz);
      unsigned bits = mask_bits<W>(dot >= vthresh);
      // Fixed lane order: compact the lowest set bit first, so the survivor
      // sequence is exactly the scalar ascending scan.
      while (bits != 0) {
        const unsigned j = static_cast<unsigned>(__builtin_ctz(bits));
        out[kept++] = candidates[i + j];
        bits &= bits - 1;
      }
    }
  }
  for (; i < n; ++i) {
    const std::uint32_t si = candidates[i];
    if (cx * ux[si] + cy * uy[si] + cz * uz[si] >= cos_psi) {
      out[kept++] = candidates[i];
    }
  }
  return kept;
}

template <std::size_t W>
void rotate_about_z_impl(const double* x, const double* y, double c, double s,
                         std::size_t n, double* out_x, double* out_y) {
  std::size_t i = 0;
  if constexpr (W > 1) {
    using L = simd::DoubleLanes<W>;
    using V = typename L::V;
    const V vc = L::splat(c);
    const V vs = L::splat(s);
    for (; i + W <= n; i += W) {
      // Both inputs loaded before either store, so in-place rotation
      // (out_x == x, out_y == y) stays well-defined.
      const V vx = L::load(x + i);
      const V vy = L::load(y + i);
      const V ox = vx * vc + vy * vs;
      const V oy = -vx * vs + vy * vc;
      L::store(out_x + i, ox);
      L::store(out_y + i, oy);
    }
  }
  for (; i < n; ++i) {
    const double xi = x[i];
    const double yi = y[i];
    out_x[i] = xi * c + yi * s;
    out_y[i] = -xi * s + yi * c;
  }
}

}  // namespace

std::size_t kernel_lanes() noexcept { return kW; }

const char* kernel_backend() noexcept {
  if constexpr (kW == 8) {
    return "vec8";
  } else if constexpr (kW == 4) {
    return "vec4";
  } else if constexpr (kW == 2) {
    return "vec2";
  } else {
    return "scalar";
  }
}

std::size_t filter_visible(double cx, double cy, double cz, const double* ux,
                           const double* uy, const double* uz,
                           const std::uint32_t* candidates, std::size_t n,
                           double cos_psi, std::uint32_t* out) {
  return filter_visible_impl<kW>(cx, cy, cz, ux, uy, uz, candidates, n,
                                 cos_psi, out);
}

void rotate_about_z(const double* x, const double* y, double c, double s,
                    std::size_t n, double* out_x, double* out_y) {
  rotate_about_z_impl<kW>(x, y, c, s, n, out_x, out_y);
}

}  // namespace leodivide::orbit
