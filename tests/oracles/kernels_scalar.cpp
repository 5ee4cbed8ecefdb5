#include "oracles/oracles.hpp"

// One element per loop iteration, exactly the expression the pre-SIMD
// propagator ran, in the order the vector kernel computes each lane; with
// -ffp-contract=off the results are bit-identical by construction. Compiled
// with auto-vectorization off and baseline target flags (CMakeLists.txt
// here), so this is also the honest denominator for the BENCH_graph.json
// kernel ratio.

namespace leodivide::oracle {

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
