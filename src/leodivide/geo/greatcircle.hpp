#pragma once
// Great-circle geometry on the spherical Earth: distances and latitude
// bands.

#include "leodivide/geo/geopoint.hpp"

namespace leodivide::geo {

/// Haversine great-circle distance [km].
[[nodiscard]] double distance_km(const GeoPoint& a, const GeoPoint& b);

/// Central angle between two points [radians].
[[nodiscard]] double central_angle_rad(const GeoPoint& a, const GeoPoint& b);

/// Fraction of the sphere's surface between latitudes [lat_lo, lat_hi] deg.
[[nodiscard]] double latitude_band_fraction(double lat_lo_deg,
                                            double lat_hi_deg);

}  // namespace leodivide::geo
