#pragma once
// Inter-satellite link (ISL) topology. Starlink satellites that cannot see
// a gateway directly relay traffic over laser ISLs; the standard topology
// is the "+grid": each satellite links to its two intra-plane neighbours
// and one counterpart in each adjacent plane (Section 2.2's "indirectly via
// inter-satellite link"). This module builds the +grid for a Walker shell
// and answers reachability/latency questions: hop counts to the nearest
// gateway-connected satellite and end-to-end propagation delay.

#include <cstdint>
#include <vector>

#include "leodivide/orbit/propagate.hpp"
#include "leodivide/orbit/walker.hpp"

namespace leodivide::orbit {

/// Satellite index within a Walker shell, addressed as (plane, slot).
struct SatAddress {
  std::uint32_t plane = 0;
  std::uint32_t slot = 0;
  friend bool operator==(const SatAddress&, const SatAddress&) = default;
};

/// The +grid ISL topology over one Walker shell.
class IslGrid {
 public:
  explicit IslGrid(const WalkerShell& shell);

  [[nodiscard]] const WalkerShell& shell() const noexcept { return shell_; }
  [[nodiscard]] std::uint32_t size() const noexcept {
    return shell_.total_sats();
  }

  /// Flat index <-> (plane, slot).
  [[nodiscard]] std::uint32_t index_of(SatAddress address) const;
  [[nodiscard]] SatAddress address_of(std::uint32_t index) const;

  /// The four +grid neighbours of a satellite: previous/next in plane,
  /// same slot in previous/next plane (all rings wrap).
  [[nodiscard]] std::vector<std::uint32_t> neighbors(
      std::uint32_t index) const;

  /// Hop count from every satellite to its nearest satellite in `sources`
  /// (e.g. the gateway-connected set). Unreachable entries (empty sources)
  /// throw std::invalid_argument.
  [[nodiscard]] std::vector<std::uint32_t> hops_to_nearest(
      const std::vector<std::uint32_t>& sources) const;

  /// Physical length [km] of one intra-plane ISL (chord between adjacent
  /// slots of a plane).
  [[nodiscard]] double intra_plane_link_km() const;

 private:
  WalkerShell shell_;
};

/// One-way propagation delay [ms] over a path of `distance_km` at the
/// speed of light in vacuum (laser ISLs and radio both ~c).
[[nodiscard]] double propagation_delay_ms(double distance_km);

/// One-way bent-pipe delay [ms]: UT -> satellite -> gateway, both at
/// `slant_km` (typical bent-pipe geometry with a nearby gateway).
[[nodiscard]] double bent_pipe_delay_ms(double ut_slant_km,
                                        double gw_slant_km);

}  // namespace leodivide::orbit
