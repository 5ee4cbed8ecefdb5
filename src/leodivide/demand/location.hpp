#pragma once
// Broadband-serviceable locations, FCC Broadband Data Collection style.
// A location is a structure (house, business) that could be served by
// broadband; the FCC National Broadband Map records the best service each
// ISP claims to offer there. A location is "served" under the federal
// reliable-broadband definition if some ISP offers >= 100 Mbps down and
// >= 20 Mbps up; otherwise it is unserved or underserved ("un(der)served").

#include <cstdint>
#include <string>

#include "leodivide/geo/geopoint.hpp"

namespace leodivide::demand {

/// Federal "reliable broadband" thresholds (FCC), Mbps.
inline constexpr double kReliableDownMbps = 100.0;
inline constexpr double kReliableUpMbps = 20.0;

/// Access technology of a location's best offer.
enum class Technology : std::uint8_t {
  kNone = 0,        ///< no terrestrial offer at all
  kDsl,
  kCable,
  kFiber,
  kFixedWireless,
  kGeoSatellite,    ///< legacy GEO satellite offers (not "reliable")
};

[[nodiscard]] std::string to_string(Technology t);

/// Parses the string produced by to_string; throws std::invalid_argument
/// for unknown names.
[[nodiscard]] Technology technology_from_string(const std::string& s);

/// Advertised service speeds of an offer.
struct ServiceLevel {
  double down_mbps = 0.0;
  double up_mbps = 0.0;
  friend bool operator==(const ServiceLevel&, const ServiceLevel&) = default;
};

/// True if the offer meets the federal reliable-broadband definition.
[[nodiscard]] bool is_reliable(const ServiceLevel& offer) noexcept;

/// One broadband-serviceable location.
struct Location {
  std::uint64_t id = 0;
  geo::GeoPoint position;
  std::uint32_t county_index = 0;  ///< index into the dataset's county table
  ServiceLevel best_offer;
  Technology technology = Technology::kNone;

  /// Unserved or underserved under the federal definition.
  [[nodiscard]] bool underserved() const noexcept {
    return !is_reliable(best_offer);
  }

  /// Exact (bit-level) equality; snapshot round-trip tests rely on it.
  friend bool operator==(const Location&, const Location&) = default;
};

/// Per-location downlink demand [Gbps] implied by the federal definition:
/// every location must be offered kReliableDownMbps.
[[nodiscard]] constexpr double location_demand_gbps() noexcept {
  return kReliableDownMbps / 1000.0;
}

}  // namespace leodivide::demand
