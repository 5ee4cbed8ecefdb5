#include "leodivide/geo/geopoint.hpp"

#include "leodivide/geo/angle.hpp"

namespace leodivide::geo {

GeoPoint GeoPoint::normalized() const noexcept {
  return GeoPoint{clamp_latitude_deg(lat_deg), wrap_longitude_deg(lon_deg)};
}

bool GeoPoint::valid() const noexcept {
  return lat_deg >= -90.0 && lat_deg <= 90.0 && lon_deg > -180.0 &&
         lon_deg <= 180.0;
}

}  // namespace leodivide::geo
