#pragma once
// Geographic bounding boxes (axis-aligned in lat/lon).

#include "leodivide/geo/geopoint.hpp"

namespace leodivide::geo {

/// Axis-aligned lat/lon box. Does not support boxes crossing the antimeridian
/// (sufficient for the contiguous US, Alaska handled as its own box).
struct BoundingBox {
  double lat_min = 0.0;
  double lat_max = 0.0;
  double lon_min = 0.0;
  double lon_max = 0.0;

  [[nodiscard]] bool valid() const noexcept;
  [[nodiscard]] bool contains(const GeoPoint& p) const noexcept;
  /// Expands the box to include p; an empty box (a min above its max, as
  /// empty() makes, or NaN) becomes the point. A box past the globe's range
  /// (not valid()) still grows: it is not empty.
  void extend(const GeoPoint& p) noexcept;

  /// A box that contains nothing; extend() grows it from scratch.
  [[nodiscard]] static BoundingBox empty() noexcept;

  friend bool operator==(const BoundingBox&, const BoundingBox&) = default;
};

/// Bounding box of the contiguous United States (generous).
[[nodiscard]] BoundingBox conus_bbox() noexcept;

}  // namespace leodivide::geo
