#pragma once
// Satellite surface density as a function of latitude — the quantity the
// paper "works backwards from" to size the constellation (P2: peak demand
// density at a location determines total constellation size).
//
// For a Walker constellation of N satellites at inclination i, the
// time-averaged sub-satellite latitude of each satellite has density
//     f(phi) = cos(phi) / (pi * sqrt(sin^2 i - sin^2 phi)),   |phi| < i,
// so the surface density of satellites (per km^2 of Earth surface) at
// latitude phi is
//     rho(phi) = N / (2 * pi^2 * R^2 * sqrt(sin^2 i - sin^2 phi)).
// Density diverges near phi -> i (satellites "linger" at the top of their
// ground track) and is lowest at the equator.

#include <vector>

#include "leodivide/orbit/walker.hpp"

namespace leodivide::orbit {

/// Time-averaged satellites per km^2 at a latitude, for a constellation of
/// `total_sats` at `inclination_deg`. Zero outside the covered band.
[[nodiscard]] double surface_density_per_km2(double total_sats,
                                             double lat_deg,
                                             double inclination_deg);

/// Inverse problem: the total constellation size needed so that the surface
/// density at `lat_deg` reaches `required_density_per_km2` (i.e. one
/// satellite per 1/required area). This is the paper's sizing primitive.
[[nodiscard]] double constellation_size_for_density(
    double required_density_per_km2, double lat_deg, double inclination_deg);

/// Empirical check of the analytic model: propagates the shell over one
/// full period sampled at `epochs` instants and histograms sub-satellite
/// latitudes into `bands` equal-latitude bins over [-90, 90]. Returns
/// satellites per km^2 per bin. Used by tests and the ablation bench to
/// validate surface_density_per_km2 against actual orbital motion.
[[nodiscard]] std::vector<double> empirical_density_per_km2(
    const WalkerShell& shell, std::size_t epochs, std::size_t bands);

}  // namespace leodivide::orbit
