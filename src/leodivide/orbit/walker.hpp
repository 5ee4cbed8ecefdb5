#pragma once
// Walker constellation generation. Starlink's shells are Walker-Delta
// constellations (e.g. the 53.0 deg / 72 planes x 22 sats first shell); the
// notation i:T/P/F gives inclination, total satellites, planes, and the
// inter-plane phasing factor.

#include <cstdint>
#include <string>
#include <vector>

#include "leodivide/orbit/kepler.hpp"

namespace leodivide::orbit {

/// Parameters of a Walker-Delta constellation shell.
struct WalkerShell {
  double inclination_deg = 53.0;
  double altitude_km = 550.0;
  std::uint32_t planes = 72;
  std::uint32_t sats_per_plane = 22;
  std::uint32_t phasing = 1;  ///< Walker F parameter in [0, planes)

  /// planes x sats_per_plane; exact for every shell check_shell accepts.
  [[nodiscard]] std::uint32_t total_sats() const noexcept {
    return planes * sats_per_plane;
  }

  /// "53.0:1584/72/1 @ 550km" style description.
  [[nodiscard]] std::string to_string() const;

  /// Exact (bit-level) equality; snapshot round-trip tests rely on it.
  friend bool operator==(const WalkerShell&, const WalkerShell&) = default;
};

/// Starlink Gen1 first shell (the workhorse shell over the US).
[[nodiscard]] WalkerShell starlink_shell1() noexcept;

/// Most satellites one shell may hold. The largest constellation filed so
/// far (Rwanda's Cinnamon-937 ITU filing) lists about a third of this, and
/// SpaceX's Gen2 filing under 30,000, so no real design is refused; yet a
/// shell at the bound costs ~32 MB of orbits and ~24 MB of states per
/// epoch, where one of planes x sats_per_plane near 2^32 would ask for
/// ~137 GB before a single epoch runs.
inline constexpr std::uint64_t kMaxShellSatellites = 1'000'000;

/// Throws std::invalid_argument unless `shell` can be expanded: at least
/// one plane and one satellite per plane, phasing below the plane count,
/// and at most kMaxShellSatellites satellites, counted in 64 bits so no
/// product wraps past the check.
void check_shell(const WalkerShell& shell);

/// Expands a shell into per-satellite circular orbits. Satellite k of plane
/// p has RAAN = 2*pi*p/P and phase = 2*pi*(k/S + F*p/(P*S)). Throws
/// std::invalid_argument for a shell check_shell rejects.
[[nodiscard]] std::vector<CircularOrbit> make_constellation(
    const WalkerShell& shell);

}  // namespace leodivide::orbit
