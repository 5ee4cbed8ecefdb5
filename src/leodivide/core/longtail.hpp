#pragma once
// The long-tail / diminishing-returns analysis (Figure 3, Finding F3):
// constellation size required as Starlink walks away from the hardest
// locations. Serving fewer locations only shrinks the constellation when a
// beam is freed from the binding cell — hence the stepped curve.

#include <cstdint>
#include <vector>

#include "leodivide/core/sizing.hpp"

namespace leodivide::core {

/// One step of the long-tail curve.
struct LongTailPoint {
  std::uint64_t locations_unserved = 0;  ///< x: locations left unserved
  double satellites = 0.0;               ///< y: constellation size required
  std::uint32_t beams_on_binding = 0;
  double binding_lat_deg = 0.0;

  /// Exact (bit-level) equality; snapshot round-trip tests rely on it.
  friend bool operator==(const LongTailPoint&, const LongTailPoint&) = default;
};

/// Builds the Figure-3 curve for one (beamspread, oversub_cap) pair.
///
/// Starting from the fullest service the cap allows (every cell truncated
/// at the cap), locations are shed greedily from whichever cell currently
/// binds the constellation size, one beam-threshold at a time, until no
/// cell needs more than one beam. Each cell's chain of (beams, shed) links
/// depends on that cell alone, so the sweep is one sort of every chain's
/// links in binds_before order (the order size_with_cap folds by), more
/// beams first within a chain. Points
/// are emitted whenever the required constellation size changes, with
/// strictly rising locations_unserved. The first point is the
/// full-service-at-cap size: its satellites, binding latitude and beams
/// equal size_with_cap's bit for bit, and its locations_unserved is the
/// cap-unservable residue (5103 in the paper's data). The last point is
/// the cheapest multi-beam deployment; the demand-density model (P2) does
/// not constrain sizes beyond it. When no cell needs two beams, the one
/// point is size_with_cap's single-beam fallback (the peak cell).
[[nodiscard]] std::vector<LongTailPoint> longtail_curve(
    const demand::DemandProfile& profile, const SizingModel& model,
    double beamspread, double oversub_cap);

/// longtail_curve(...).back(), bit for bit, from one walk of the shed
/// chains with no link vector and no sort: the cheapest multi-beam
/// deployment, or the single-beam fallback when no cell needs two beams.
[[nodiscard]] LongTailPoint longtail_cheapest(
    const demand::DemandProfile& profile, const SizingModel& model,
    double beamspread, double oversub_cap);

/// Satellites required when exactly `unserved_budget` locations may be left
/// unserved: the smallest curve value whose locations_unserved does not
/// exceed the budget... i.e. the cheapest deployment meeting the budget.
/// Throws std::invalid_argument if the budget is below the cap-unservable
/// residue (no deployment can meet it).
[[nodiscard]] double satellites_for_unserved_budget(
    const std::vector<LongTailPoint>& curve, std::uint64_t unserved_budget);

}  // namespace leodivide::core
