#pragma once
// 64-bit packed cell identifiers, in the spirit of H3 indexes: a resolution
// plus the cell's axial coordinate, packed so ids are cheap to hash, compare
// and store in flat maps keyed by cell.

#include <cstdint>
#include <functional>
#include <string>

#include "leodivide/hex/hexcoord.hpp"

namespace leodivide::hex {

/// Maximum supported resolution (0..15, like H3).
inline constexpr int kMaxResolution = 15;

/// Packed cell id: bits [60..63] resolution, [30..59] zig-zag encoded q,
/// [0..29] zig-zag encoded r. The all-ones value is reserved as invalid.
class CellId {
 public:
  constexpr CellId() noexcept : bits_(kInvalidBits) {}

  /// Packs a resolution and axial coordinate. Throws std::out_of_range if
  /// the resolution or coordinates exceed the representable range
  /// (|q|,|r| < 2^29).
  CellId(int resolution, HexCoord coord);

  /// Reconstructs an id from raw bits (e.g. read back from a CSV). The
  /// reserved all-ones pattern decodes to the invalid id.
  [[nodiscard]] static CellId from_bits(std::uint64_t bits);

  [[nodiscard]] static constexpr CellId invalid() noexcept { return {}; }

  [[nodiscard]] bool valid() const noexcept { return bits_ != kInvalidBits; }
  [[nodiscard]] int resolution() const noexcept;
  [[nodiscard]] HexCoord coord() const noexcept;
  [[nodiscard]] std::uint64_t bits() const noexcept { return bits_; }

  /// Hex-string rendering ("8a2b..."-style), handy for logs and CSV.
  [[nodiscard]] std::string to_string() const;

  friend bool operator==(const CellId&, const CellId&) = default;
  friend auto operator<=>(const CellId&, const CellId&) = default;

 private:
  static constexpr std::uint64_t kInvalidBits = ~0ULL;
  explicit constexpr CellId(std::uint64_t bits) noexcept : bits_(bits) {}
  std::uint64_t bits_;
};

}  // namespace leodivide::hex

template <>
struct std::hash<leodivide::hex::CellId> {
  std::size_t operator()(const leodivide::hex::CellId& id) const noexcept {
    // SplitMix-style finalizer over the packed bits.
    std::uint64_t z = id.bits() + 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return static_cast<std::size_t>(z ^ (z >> 31));
  }
};
