#include "leodivide/orbit/density.hpp"

#include <cmath>
#include <stdexcept>

#include "leodivide/geo/angle.hpp"
#include "leodivide/geo/greatcircle.hpp"
#include "leodivide/orbit/propagate.hpp"

namespace leodivide::orbit {

namespace {

// sqrt(sin^2 i - sin^2 phi), or 0 outside the band.
double band_term(double lat_deg, double inclination_deg) {
  const double si = std::sin(geo::deg2rad(inclination_deg));
  const double sp = std::sin(geo::deg2rad(lat_deg));
  const double d = si * si - sp * sp;
  return d <= 0.0 ? 0.0 : std::sqrt(d);
}

}  // namespace

double surface_density_per_km2(double total_sats, double lat_deg,
                               double inclination_deg) {
  const double term = band_term(lat_deg, inclination_deg);
  // leolint:allow(float-eq): band_term returns exactly 0.0 outside band
  if (term == 0.0) return 0.0;
  const double r2 = geo::kEarthRadiusKm * geo::kEarthRadiusKm;
  return total_sats / (2.0 * geo::kPi * geo::kPi * r2 * term);
}

double constellation_size_for_density(double required_density_per_km2,
                                      double lat_deg,
                                      double inclination_deg) {
  if (required_density_per_km2 <= 0.0) {
    throw std::invalid_argument(
        "constellation_size_for_density: density must be > 0");
  }
  const double term = band_term(lat_deg, inclination_deg);
  // leolint:allow(float-eq): band_term returns exactly 0.0 outside band
  if (term == 0.0) {
    throw std::invalid_argument(
        "constellation_size_for_density: latitude outside coverage band");
  }
  const double r2 = geo::kEarthRadiusKm * geo::kEarthRadiusKm;
  return required_density_per_km2 * 2.0 * geo::kPi * geo::kPi * r2 * term;
}

std::vector<double> empirical_density_per_km2(const WalkerShell& shell,
                                              std::size_t epochs,
                                              std::size_t bands) {
  if (epochs == 0 || bands == 0) {
    throw std::invalid_argument("empirical_density: epochs/bands must be > 0");
  }
  const auto orbits = make_constellation(shell);
  std::vector<double> counts(bands, 0.0);
  const double period = orbits.front().period_s();
  for (std::size_t e = 0; e < epochs; ++e) {
    const double t =
        period * static_cast<double>(e) / static_cast<double>(epochs);
    for (const auto& orbit : orbits) {
      const geo::GeoPoint sub = subsatellite_point(orbit, t);
      auto band = static_cast<std::size_t>((sub.lat_deg + 90.0) / 180.0 *
                                           static_cast<double>(bands));
      if (band >= bands) band = bands - 1;
      counts[band] += 1.0;
    }
  }
  // Convert to density: average count per epoch divided by band area.
  std::vector<double> density(bands, 0.0);
  for (std::size_t b = 0; b < bands; ++b) {
    const double lat_lo = -90.0 + 180.0 * static_cast<double>(b) /
                                      static_cast<double>(bands);
    const double lat_hi = lat_lo + 180.0 / static_cast<double>(bands);
    const double area =
        geo::kEarthSurfaceAreaKm2 * geo::latitude_band_fraction(lat_lo, lat_hi);
    density[b] = counts[b] / static_cast<double>(epochs) / area;
  }
  return density;
}

}  // namespace leodivide::orbit
