#pragma once
// Frequency band bookkeeping for the Schedule-S style spectrum model.

#include <cstdint>
#include <string>
#include <vector>

namespace leodivide::spectrum {

/// What traffic a band/beam group may carry.
enum class BeamUsage {
  kUserDownlink,          ///< downlink to user terminals only
  kUserOrGatewayDownlink, ///< flexibly user terminals or gateways
  kGatewayDownlink,       ///< downlink to gateways only
  kUserUplink,            ///< uplink from user terminals
  kGatewayUplink,         ///< feeder uplink from gateways
};

[[nodiscard]] std::string to_string(BeamUsage usage);

/// One row of the spectrum table: a contiguous band allocated to a number of
/// beams with a usage class.
struct Band {
  std::string name;        ///< e.g. "10.7-12.75 GHz"
  double lo_ghz = 0.0;
  double hi_ghz = 0.0;
  std::uint32_t beams = 0; ///< beams formed in this band per satellite
  BeamUsage usage = BeamUsage::kUserDownlink;

  /// Bandwidth in MHz.
  [[nodiscard]] double width_mhz() const noexcept {
    return (hi_ghz - lo_ghz) * 1000.0;
  }

  /// Exact (bit-level) equality; snapshot round-trip tests rely on it.
  friend bool operator==(const Band&, const Band&) = default;
};

/// A full spectrum plan (a set of bands). Provides the aggregates the
/// paper's Table 1 reports.
class SpectrumPlan {
 public:
  /// Throws std::invalid_argument on an empty table, a non-finite band
  /// edge, a band whose upper edge is not above its lower one or a beam
  /// total above UINT32_MAX.
  explicit SpectrumPlan(std::vector<Band> bands);

  [[nodiscard]] const std::vector<Band>& bands() const noexcept {
    return bands_;
  }

  /// Total MHz usable for user-terminal downlink (kUserDownlink +
  /// kUserOrGatewayDownlink bands).
  [[nodiscard]] double user_downlink_mhz() const noexcept;

  /// Total MHz across all bands (including gateway-only).
  [[nodiscard]] double total_mhz() const noexcept;

  /// Beams usable for user-terminal downlink.
  [[nodiscard]] std::uint32_t user_beams() const noexcept {
    return user_beams_;
  }

  /// All beams (including gateway-only).
  [[nodiscard]] std::uint32_t total_beams() const noexcept {
    return total_beams_;
  }

 private:
  std::vector<Band> bands_;
  std::uint32_t user_beams_ = 0;
  std::uint32_t total_beams_ = 0;
};

/// The Starlink Gen2 Schedule-S spectrum plan as tabulated in the paper
/// (Table 1): 3850 MHz / 24 beams to user terminals, 8850 MHz / 28 beams
/// total. Downlink only — the paper's analysis is downlink-driven.
[[nodiscard]] SpectrumPlan starlink_schedule_s();

}  // namespace leodivide::spectrum
