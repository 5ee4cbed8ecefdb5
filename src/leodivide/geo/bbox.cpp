#include "leodivide/geo/bbox.hpp"

#include <algorithm>

namespace leodivide::geo {

bool BoundingBox::valid() const noexcept {
  return lat_min <= lat_max && lon_min <= lon_max && lat_min >= -90.0 &&
         lat_max <= 90.0 && lon_min >= -180.0 && lon_max <= 180.0;
}

bool BoundingBox::contains(const GeoPoint& p) const noexcept {
  return p.lat_deg >= lat_min && p.lat_deg <= lat_max &&
         p.lon_deg >= lon_min && p.lon_deg <= lon_max;
}

void BoundingBox::extend(const GeoPoint& p) noexcept {
  // Only an empty box (a min above its max, or NaN) restarts at p. A box
  // that already reaches past the globe's range is not empty: resetting it
  // would drop the vertices it holds.
  if (!(lat_min <= lat_max && lon_min <= lon_max)) {
    lat_min = lat_max = p.lat_deg;
    lon_min = lon_max = p.lon_deg;
    return;
  }
  lat_min = std::min(lat_min, p.lat_deg);
  lat_max = std::max(lat_max, p.lat_deg);
  lon_min = std::min(lon_min, p.lon_deg);
  lon_max = std::max(lon_max, p.lon_deg);
}

BoundingBox BoundingBox::empty() noexcept {
  return {1.0, -1.0, 1.0, -1.0};  // deliberately invalid
}

BoundingBox conus_bbox() noexcept { return {24.4, 49.4, -124.8, -66.9}; }

}  // namespace leodivide::geo
