#pragma once
// Great-circle geometry on the spherical Earth: distances,
// destination points and latitude bands.

#include "leodivide/geo/geopoint.hpp"

namespace leodivide::geo {

/// Haversine great-circle distance [km].
[[nodiscard]] double distance_km(const GeoPoint& a, const GeoPoint& b);

/// Central angle between two points [radians].
[[nodiscard]] double central_angle_rad(const GeoPoint& a, const GeoPoint& b);

/// Point reached travelling `distance_km` from `start` along `bearing_deg`.
[[nodiscard]] GeoPoint destination(const GeoPoint& start, double bearing_deg,
                                   double distance_km);

/// Fraction of the sphere's surface between latitudes [lat_lo, lat_hi] deg.
[[nodiscard]] double latitude_band_fraction(double lat_lo_deg,
                                            double lat_hi_deg);

}  // namespace leodivide::geo
