#pragma once
// The federal reliable-broadband definition behind "un(der)served". A
// location is a structure (house, business) that could be served by
// broadband; the FCC National Broadband Map records the best service each
// ISP claims to offer there. A location is "served" if some ISP offers
// >= 100 Mbps down and >= 20 Mbps up; otherwise it is unserved or
// underserved ("un(der)served"). The library's input is the per-cell count
// of un(der)served locations (DemandProfile, dataset.hpp).

namespace leodivide::demand {

/// Federal "reliable broadband" thresholds (FCC), Mbps.
inline constexpr double kReliableDownMbps = 100.0;
inline constexpr double kReliableUpMbps = 20.0;

/// Advertised service speeds of an offer.
struct ServiceLevel {
  double down_mbps = 0.0;
  double up_mbps = 0.0;
  friend bool operator==(const ServiceLevel&, const ServiceLevel&) = default;
};

/// True if the offer meets the federal reliable-broadband definition.
[[nodiscard]] constexpr bool is_reliable(const ServiceLevel& offer) noexcept {
  return offer.down_mbps >= kReliableDownMbps &&
         offer.up_mbps >= kReliableUpMbps;
}

/// Per-location downlink demand [Gbps] implied by the federal definition:
/// every location must be offered kReliableDownMbps.
[[nodiscard]] constexpr double location_demand_gbps() noexcept {
  return kReliableDownMbps / 1000.0;
}

}  // namespace leodivide::demand
