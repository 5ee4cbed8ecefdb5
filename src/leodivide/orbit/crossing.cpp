#include "leodivide/orbit/crossing.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "leodivide/geo/angle.hpp"

namespace leodivide::orbit {

namespace {

// Initial sweep step scale: L * h0 ~ kSweepDrop, i.e. the endpoint
// magnitudes needed to certify a first-level interval root-free. 0.5 keeps
// most of the horizon certified at the top level while the subdivision
// handles every pass boundary.
constexpr double kSweepDrop = 0.5;

}  // namespace

ConeCrossingSolver::ConeCrossingSolver(const CircularOrbit& orbit,
                                       double cos_psi)
    : mean_motion_(orbit.mean_motion_rad_s()),
      phase_(orbit.phase_rad),
      cos_psi_(cos_psi) {
  if (cos_psi < -1.0 || cos_psi > 1.0) {
    throw std::invalid_argument("ConeCrossingSolver: cos_psi out of [-1, 1]");
  }
  psi_rad_ = std::acos(cos_psi);
  const double cos_i = std::cos(orbit.inclination_rad);
  const double sin_i = std::sin(orbit.inclination_rad);
  const double cos_o = std::cos(orbit.raan_rad);
  const double sin_o = std::sin(orbit.raan_rad);
  // eci_unit(t) = cos(u) * P + sin(u) * Q with u = phase + n t — the same
  // decomposition eci_position uses, with the radius factored out.
  p_ = {cos_o, sin_o, 0.0};
  q_ = {-sin_o * cos_i, cos_o * cos_i, sin_i};
  abs_sin_inc_ = std::abs(sin_i);
  rate_bound_ = mean_motion_ + geo::kEarthRotationRadPerSec;
}

double ConeCrossingSolver::eval(const geo::Vec3& u, double t_s) const noexcept {
  // dot(ecef_sat_unit, u) == dot(eci_sat_unit, Rz(theta) u): rotating the
  // ground point forward by the Earth angle is cheaper than rotating the
  // satellite back, and needs only one extra sincos per evaluation.
  const double theta = geo::kEarthRotationRadPerSec * t_s;
  const double c = std::cos(theta);
  const double s = std::sin(theta);
  const geo::Vec3 u_rot{u.x * c - u.y * s, u.x * s + u.y * c, u.z};
  const double au = p_.dot(u_rot);
  const double bu = q_.dot(u_rot);
  const double arg = phase_ + mean_motion_ * t_s;
  return std::cos(arg) * au + std::sin(arg) * bu - cos_psi_;
}

bool ConeCrossingSolver::can_ever_see(const geo::Vec3& u) const noexcept {
  // The satellite unit vector's z component is sin(u) * sin(i), bounded by
  // |sin i| for all time (Earth rotation leaves z untouched). The minimum
  // central angle to a ground point at latitude phi is therefore at least
  // |phi| - asin(|sin i|); if that exceeds psi (with margin for the asin
  // rounding), no crossing can ever occur.
  constexpr double kMarginRad = 1e-6;
  const double z = std::clamp(u.z, -1.0, 1.0);
  const double lat = std::asin(std::abs(z));
  const double band = std::asin(std::min(1.0, abs_sin_inc_));
  return lat - band <= psi_rad_ + kMarginRad;
}

void ConeCrossingSolver::find(const geo::Vec3& u, double t_begin, double t_end,
                              std::vector<Crossing>& out,
                              CrossingScratch& scratch) const {
  if (!(t_end > t_begin)) return;
  if (!can_ever_see(u)) return;

  const double lip = rate_bound_;
  const double h0 = std::max(kCrossingWindowS, kSweepDrop / lip);

  // Emit one resolved window. Windows come out of the subdivision in
  // ascending time order because intervals are processed left to right.
  const auto emit = [&](double lo, double hi, double g_lo, double g_hi) {
    Crossing c;
    c.window_lo_s = lo;
    c.window_hi_s = hi;
    c.time_s = lo + 0.5 * (hi - lo);
    const bool sign_change = (g_lo < 0.0) != (g_hi < 0.0);
    c.certain = sign_change;
    c.rising = g_lo < 0.0;
    out.push_back(c);
  };

  // Depth-first, leftmost-interval-first subdivision driven by an explicit
  // stack (LIFO: pushing the right half before the left makes the left pop
  // first, so emission order is ascending in time).
  auto& stack = scratch.stack;
  stack.clear();

  // Seed the stack with the uniform top-level sweep, rightmost first.
  const std::size_t n_seed = static_cast<std::size_t>(
      std::ceil((t_end - t_begin) / h0));
  double g_prev = eval(u, t_begin);
  // Evaluate boundaries left to right once, collecting segments; then
  // reverse so the stack pops them in ascending order.
  const std::size_t stack_base = stack.size();
  double lo = t_begin;
  for (std::size_t k = 1; k <= n_seed; ++k) {
    const double hi = k == n_seed
                          ? t_end
                          : t_begin + static_cast<double>(k) * h0;
    const double g_hi = eval(u, hi);
    stack.push_back({lo, hi, g_prev, g_hi});
    lo = hi;
    g_prev = g_hi;
  }
  std::reverse(stack.begin() + static_cast<std::ptrdiff_t>(stack_base),
               stack.end());

  while (!stack.empty()) {
    const CrossingScratch::Interval iv = stack.back();
    stack.pop_back();
    const double width = iv.hi - iv.lo;
    // Certified root-free: g cannot bridge the endpoint magnitudes within
    // the Lipschitz budget (and both endpoints are on the same side).
    const bool same_side = (iv.g_lo < 0.0) == (iv.g_hi < 0.0);
    if (same_side && std::abs(iv.g_lo) + std::abs(iv.g_hi) >
                         lip * width + kCrossingEvalSlack) {
      continue;
    }
    if (width <= kCrossingWindowS) {
      // Narrow enough: a sign change is a certain crossing window; a
      // same-side residual is a potential graze (local extremum hugging
      // the threshold) and is emitted as an uncertain window so callers
      // treat the whole interval as dirty.
      emit(iv.lo, iv.hi, iv.g_lo, iv.g_hi);
      continue;
    }
    const double mid = iv.lo + 0.5 * width;
    const double g_mid = eval(u, mid);
    stack.push_back({mid, iv.hi, g_mid, iv.g_hi});  // right half pops second
    stack.push_back({iv.lo, mid, iv.g_lo, g_mid});
  }
}

}  // namespace leodivide::orbit
