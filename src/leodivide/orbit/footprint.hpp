#pragma once
// Satellite footprint geometry: how far from its sub-satellite point a
// satellite at a given altitude can serve, subject to a minimum terminal
// elevation angle.

namespace leodivide::orbit {

/// Earth central angle [rad] from the sub-satellite point to the edge of
/// coverage for a satellite at `altitude_km` and a terminal elevation mask
/// of `min_elevation_deg`.
[[nodiscard]] double coverage_central_angle_rad(double altitude_km,
                                                double min_elevation_deg);

/// Great-circle radius [km] of the coverage footprint on the surface.
[[nodiscard]] double footprint_radius_km(double altitude_km,
                                         double min_elevation_deg);

}  // namespace leodivide::orbit
