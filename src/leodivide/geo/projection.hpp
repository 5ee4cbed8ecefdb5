#pragma once
// Map projections used by the hex grid. The hex index projects a region of
// interest to a plane, tiles hexagons there, and unprojects back; the
// equidistant azimuthal projection keeps distance distortion small over a
// continent-sized region, which keeps hex cell areas near-uniform.

#include "leodivide/geo/geopoint.hpp"

namespace leodivide::geo {

/// Planar point [km].
struct PlanePoint {
  double x = 0.0;
  double y = 0.0;
  friend bool operator==(const PlanePoint&, const PlanePoint&) = default;
};

/// Azimuthal equidistant projection about a center point: radial distances
/// from the center are exact great-circle distances, azimuths are preserved.
class AzimuthalEquidistant {
 public:
  explicit AzimuthalEquidistant(const GeoPoint& center);

  [[nodiscard]] PlanePoint forward(const GeoPoint& p) const;
  [[nodiscard]] GeoPoint inverse(const PlanePoint& q) const;
  [[nodiscard]] const GeoPoint& center() const noexcept { return center_; }

 private:
  GeoPoint center_;
  double sin_lat0_;
  double cos_lat0_;
  double lon0_rad_;
};

}  // namespace leodivide::geo
