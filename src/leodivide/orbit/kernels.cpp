#include "leodivide/orbit/kernels.hpp"

#include "leodivide/simd/lanes.hpp"

// This is the only TU that instantiates SIMD code, and everything
// width-dependent stays in the anonymous namespace: the build may give this
// file wider target flags (see LEODIVIDE_KERNEL_NATIVE) without risking an
// ODR merge of flag-dependent inline code from other TUs.

namespace leodivide::orbit {

namespace {

constexpr std::size_t kW = simd::kPreferredLanes;

// The width-generic kernel body. It is a template so the scalar (W == 1)
// instantiation never touches the vector branch — `if constexpr`
// only discards statements inside a template.

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

void rotate_about_z(const double* x, const double* y, double c, double s,
                    std::size_t n, double* out_x, double* out_y) {
  rotate_about_z_impl<kW>(x, y, c, s, n, out_x, out_y);
}

}  // namespace leodivide::orbit
