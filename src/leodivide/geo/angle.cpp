#include "leodivide/geo/angle.hpp"

#include <algorithm>
#include <cmath>

namespace leodivide::geo {

double wrap_longitude_deg(double deg) noexcept {
  double d = std::fmod(deg, 360.0);
  if (d <= -180.0) d += 360.0;
  if (d > 180.0) d -= 360.0;
  return d;
}

double clamp_latitude_deg(double deg) noexcept {
  return std::clamp(deg, -90.0, 90.0);
}

}  // namespace leodivide::geo
