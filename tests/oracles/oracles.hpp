#pragma once
// Test oracles: the naive implementations the library's fast paths must
// match bit for bit. Linked by the tests and micro_perf only, never by the
// shipped library.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "leodivide/orbit/propagate.hpp"
#include "leodivide/sim/scheduler.hpp"

namespace leodivide::oracle {

/// The naive O(cells x sats) scheduling kernel, kept verbatim from before
/// the visibility index: scans every satellite per cell, in the scheduler's
/// processing order. BeamScheduler::schedule must equal it byte for byte.
[[nodiscard]] sim::ScheduleResult schedule_reference(
    const sim::BeamScheduler& scheduler,
    const std::vector<orbit::SatState>& sats);

/// Scalar references for orbit::filter_visible and orbit::rotate_about_z.
std::size_t filter_visible_scalar(double cx, double cy, double cz,
                                  const double* ux, const double* uy,
                                  const double* uz,
                                  const std::uint32_t* candidates,
                                  std::size_t n, double cos_psi,
                                  std::uint32_t* out);
void rotate_about_z_scalar(const double* x, const double* y, double c,
                           double s, std::size_t n, double* out_x,
                           double* out_y);

}  // namespace leodivide::oracle
