#include "leodivide/demand/location.hpp"

#include <stdexcept>

namespace leodivide::demand {

std::string to_string(Technology t) {
  switch (t) {
    case Technology::kNone: return "none";
    case Technology::kDsl: return "dsl";
    case Technology::kCable: return "cable";
    case Technology::kFiber: return "fiber";
    case Technology::kFixedWireless: return "fixed_wireless";
    case Technology::kGeoSatellite: return "geo_satellite";
  }
  return "unknown";
}

Technology technology_from_string(const std::string& s) {
  if (s == "none") return Technology::kNone;
  if (s == "dsl") return Technology::kDsl;
  if (s == "cable") return Technology::kCable;
  if (s == "fiber") return Technology::kFiber;
  if (s == "fixed_wireless") return Technology::kFixedWireless;
  if (s == "geo_satellite") return Technology::kGeoSatellite;
  throw std::invalid_argument("technology_from_string: unknown '" + s + "'");
}

bool is_reliable(const ServiceLevel& offer) noexcept {
  return offer.down_mbps >= kReliableDownMbps &&
         offer.up_mbps >= kReliableUpMbps;
}

}  // namespace leodivide::demand
