#pragma once
// Axial/cube hexagon coordinates on a plane (pointy-top orientation).
// The hex index builds on these: cells at a given resolution are axial
// integer coordinates on a projected plane.

#include <cstdint>

namespace leodivide::hex {

/// Axial hexagon coordinate. The implicit cube coordinate is
/// (q, r, s = -q-r); all cube identities hold.
struct HexCoord {
  std::int32_t q = 0;
  std::int32_t r = 0;

  [[nodiscard]] constexpr std::int32_t s() const noexcept { return -q - r; }

  friend bool operator==(const HexCoord&, const HexCoord&) = default;
};

/// Fractional axial coordinate, produced when mapping a plane point into
/// hex space before rounding.
struct FractionalHex {
  double q = 0.0;
  double r = 0.0;
};

/// Rounds a fractional hex coordinate to the nearest cell using cube
/// rounding (guarantees the result is the containing hexagon).
[[nodiscard]] HexCoord hex_round(const FractionalHex& f) noexcept;

}  // namespace leodivide::hex
