#pragma once
// Angle conversions and normalisation plus physical constants shared by the
// geodesy and orbit modules.

namespace leodivide::geo {

inline constexpr double kPi = 3.14159265358979323846;
inline constexpr double kTwoPi = 2.0 * kPi;

/// Mean Earth radius [km] (spherical model; the paper's capacity model does
/// not require ellipsoidal precision).
inline constexpr double kEarthRadiusKm = 6371.0088;

/// Earth's surface area [km^2] (spherical).
inline constexpr double kEarthSurfaceAreaKm2 =
    4.0 * kPi * kEarthRadiusKm * kEarthRadiusKm;

/// Standard gravitational parameter of Earth [km^3/s^2].
inline constexpr double kMuEarth = 398600.4418;

/// Earth rotation rate [rad/s] (sidereal).
inline constexpr double kEarthRotationRadPerSec = 7.2921150e-5;

[[nodiscard]] constexpr double deg2rad(double deg) noexcept {
  return deg * kPi / 180.0;
}
[[nodiscard]] constexpr double rad2deg(double rad) noexcept {
  return rad * 180.0 / kPi;
}

/// Normalises a longitude in degrees to (-180, 180].
[[nodiscard]] double wrap_longitude_deg(double deg) noexcept;

/// Clamps a latitude in degrees to [-90, 90].
[[nodiscard]] double clamp_latitude_deg(double deg) noexcept;

}  // namespace leodivide::geo
