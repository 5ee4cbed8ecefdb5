#pragma once
// Multi-shell constellations. Real deployments are unions of Walker shells
// at different inclinations and altitudes (Starlink Gen1 files five); the
// surface density of the union is the sum of the per-shell Walker
// densities. This module extends the single-shell latitude-density model
// of density.hpp to shell mixtures and answers the design question the
// paper's model raises: since the binding cell sits at ~36.5 deg N, how
// much does a lower-inclination shell reduce the required fleet?

#include <vector>

#include "leodivide/orbit/density.hpp"
#include "leodivide/orbit/walker.hpp"

namespace leodivide::orbit {

/// A constellation made of several Walker shells.
class MultiShellConstellation {
 public:
  MultiShellConstellation() = default;
  explicit MultiShellConstellation(std::vector<WalkerShell> shells);


  [[nodiscard]] const std::vector<WalkerShell>& shells() const noexcept {
    return shells_;
  }
  [[nodiscard]] std::uint32_t total_sats() const noexcept;

  /// Time-averaged satellites per km^2 at a latitude: the sum of the
  /// per-shell Walker densities.
  [[nodiscard]] double surface_density_per_km2(double lat_deg) const;

  /// Scales every shell's satellite count by `factor` so the mixture
  /// reaches `required_density_per_km2` at `lat_deg`; returns the scaled
  /// total satellite count (fractional — callers round per their needs).
  /// Throws std::invalid_argument if no shell covers the latitude.
  [[nodiscard]] double size_for_density(double required_density_per_km2,
                                        double lat_deg) const;

 private:
  std::vector<WalkerShell> shells_;
};

/// The five Starlink Gen1 shells as authorised by the FCC (2021
/// modification): 53.0/550 (72x22), 53.2/540 (72x22), 70.0/570 (36x20),
/// 97.6/560 (6x58), 97.6/560.1 (4x43).
[[nodiscard]] MultiShellConstellation starlink_gen1();

}  // namespace leodivide::orbit
