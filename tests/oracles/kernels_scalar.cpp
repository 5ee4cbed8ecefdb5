#include "oracles/oracles.hpp"

// One element per loop iteration, exactly the expressions the pre-SIMD
// scheduler and propagator ran, in the order the vector kernels compute
// each lane; with -ffp-contract=off the results are bit-identical by
// construction. Compiled with auto-vectorization off and baseline target
// flags (CMakeLists.txt here), so this is also the honest denominator for
// the BENCH_graph.json kernel ratios.

namespace leodivide::oracle {

std::size_t filter_visible_scalar(double cx, double cy, double cz,
                                  const double* ux, const double* uy,
                                  const double* uz,
                                  const std::uint32_t* candidates,
                                  std::size_t n, double cos_psi,
                                  std::uint32_t* out) {
  std::size_t kept = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t si = candidates[i];
    if (cx * ux[si] + cy * uy[si] + cz * uz[si] >= cos_psi) {
      out[kept++] = candidates[i];
    }
  }
  return kept;
}

void rotate_about_z_scalar(const double* x, const double* y, double c,
                           double s, std::size_t n, double* out_x,
                           double* out_y) {
  for (std::size_t i = 0; i < n; ++i) {
    // Both inputs loaded before either store: in-place rotation is fine.
    const double xi = x[i];
    const double yi = y[i];
    out_x[i] = xi * c + yi * s;
    out_y[i] = -xi * s + yi * c;
  }
}

}  // namespace leodivide::oracle
