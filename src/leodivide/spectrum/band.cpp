#include "leodivide/spectrum/band.hpp"

#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>

namespace leodivide::spectrum {

std::string to_string(BeamUsage usage) {
  switch (usage) {
    case BeamUsage::kUserDownlink:
      return "DL to UTs";
    case BeamUsage::kUserOrGatewayDownlink:
      return "DL to UTs / GWs";
    case BeamUsage::kGatewayDownlink:
      return "DL to GWs";
    case BeamUsage::kUserUplink:
      return "UL from UTs";
    case BeamUsage::kGatewayUplink:
      return "UL from GWs";
  }
  return "unknown";
}

SpectrumPlan::SpectrumPlan(std::vector<Band> bands)
    : bands_(std::move(bands)) {
  if (bands_.empty()) throw std::invalid_argument("SpectrumPlan: no bands");
  std::uint64_t user = 0;
  std::uint64_t total = 0;
  for (const auto& b : bands_) {
    if (!std::isfinite(b.lo_ghz) || !std::isfinite(b.hi_ghz)) {
      throw std::invalid_argument("SpectrumPlan: band '" + b.name +
                                  "' has a non-finite edge");
    }
    if (b.hi_ghz <= b.lo_ghz) {
      throw std::invalid_argument("SpectrumPlan: band '" + b.name +
                                  "' has non-positive width");
    }
    if (b.usage == BeamUsage::kUserDownlink ||
        b.usage == BeamUsage::kUserOrGatewayDownlink ||
        b.usage == BeamUsage::kUserUplink) {
      user += b.beams;
    }
    total += b.beams;
  }
  // Summed in 64 bits so a table whose beams overflow 32 bits is rejected
  // instead of wrapping to a small count.
  if (total > std::numeric_limits<std::uint32_t>::max()) {
    throw std::invalid_argument("SpectrumPlan: beam total exceeds UINT32_MAX");
  }
  user_beams_ = static_cast<std::uint32_t>(user);
  total_beams_ = static_cast<std::uint32_t>(total);
}

double SpectrumPlan::user_downlink_mhz() const noexcept {
  double mhz = 0.0;
  for (const auto& b : bands_) {
    if (b.usage == BeamUsage::kUserDownlink ||
        b.usage == BeamUsage::kUserOrGatewayDownlink ||
        b.usage == BeamUsage::kUserUplink) {
      // For an uplink plan the "user" aggregate is the UT uplink spectrum.
      mhz += b.width_mhz();
    }
  }
  return mhz;
}

double SpectrumPlan::total_mhz() const noexcept {
  double mhz = 0.0;
  for (const auto& b : bands_) mhz += b.width_mhz();
  return mhz;
}

SpectrumPlan starlink_schedule_s() {
  // Paper Table 1, sourced from SpaceX FCC filing SAT-AMD-20210818-00105.
  return SpectrumPlan{{
      {"10.7-12.75 GHz", 10.70, 12.75, 4, BeamUsage::kUserDownlink},
      {"19.7-20.2 GHz", 19.70, 20.20, 8, BeamUsage::kUserDownlink},
      {"17.8-18.6 GHz", 17.80, 18.60, 8, BeamUsage::kUserOrGatewayDownlink},
      {"18.8-19.3 GHz", 18.80, 19.30, 4, BeamUsage::kUserOrGatewayDownlink},
      {"71-76 GHz", 71.00, 76.00, 4, BeamUsage::kGatewayDownlink},
  }};
}

}  // namespace leodivide::spectrum
