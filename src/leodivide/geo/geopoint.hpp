#pragma once
// Geodetic coordinates (latitude/longitude in degrees).

namespace leodivide::geo {

/// A point on the Earth's surface in geodetic coordinates [degrees].
/// Latitude in [-90, 90], longitude in (-180, 180].
struct GeoPoint {
  double lat_deg = 0.0;
  double lon_deg = 0.0;

  /// Returns a copy with latitude clamped and longitude wrapped to the
  /// canonical ranges.
  [[nodiscard]] GeoPoint normalized() const noexcept;

  /// True if latitude and longitude are both within canonical ranges.
  [[nodiscard]] bool valid() const noexcept;

  friend bool operator==(const GeoPoint&, const GeoPoint&) = default;
};

}  // namespace leodivide::geo
