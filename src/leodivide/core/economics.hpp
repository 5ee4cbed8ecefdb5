#pragma once
// EXTENSION (not in the paper): serving economics. The paper shows the
// *physical* diminishing returns of the long tail (Figure 3: thousands of
// extra satellites for the last locations) and the affordability gap
// (Figure 4). This module connects them in dollars: amortised constellation
// cost per served location, and the subscriber revenue the affordability
// analysis says is actually collectable.

#include <vector>

#include "leodivide/afford/affordability.hpp"
#include "leodivide/core/longtail.hpp"

namespace leodivide::core {

/// Fleet cost inputs, following the capex/opex decomposition of the
/// techno-economic framework in arXiv 2108.10834: space-segment capex per
/// satellite (manufacture + launch), a fleet-wide ground-segment capex,
/// straight-line depreciation over the satellite lifetime, and annual opex
/// as a fraction of total capex. The defaults price a satellite at $1M
/// (public estimates for mass-produced Starlink satellites incl. rideshare
/// launch run $0.5M-$1.5M) over a 5-year life, and nothing else: for any
/// fleet s they give exactly s * 1e6 / 5, since adding +0.0 or 0.0 * y
/// leaves a non-negative value unchanged.
struct CostModel {
  double satellite_capex_usd = 1'000'000.0;  ///< manufacture, per satellite
  double launch_capex_usd = 0.0;             ///< launch share, per satellite
  double ground_capex_usd = 0.0;             ///< gateways + ops, fleet-wide
  double satellite_lifetime_years = 5.0;     ///< depreciation horizon
  double annual_opex_fraction = 0.0;         ///< of total capex, per year

  /// Annualised cost of a fleet of `satellites`: total capex depreciated
  /// over the satellite lifetime plus the annual opex fraction of that
  /// capex. Throws std::invalid_argument on a negative or non-finite fleet,
  /// a negative or non-finite capex or opex input, or a non-positive or
  /// non-finite lifetime.
  [[nodiscard]] double annual_cost_usd(double satellites) const;

  /// Exact (bit-level) equality; snapshot round-trip tests rely on it.
  friend bool operator==(const CostModel&, const CostModel&) = default;
};

/// Annual cost of `point`'s fleet per location it serves (total_locations
/// less its unserved ones), or 0 when it serves none. The one
/// $/location-year formula: longtail_economics and the market simulation
/// both report it.
[[nodiscard]] double cost_per_location_year_usd(const CostModel& cost,
                                                const LongTailPoint& point,
                                                std::uint64_t total_locations);

/// Economics of one operating point on the Figure-3 curve.
struct ServingEconomics {
  std::uint64_t locations_unserved = 0;
  double satellites = 0.0;
  double annual_cost_usd = 0.0;
  std::uint64_t locations_served = 0;
  /// Amortised constellation cost per served location [USD/year].
  double cost_per_location_year_usd = 0.0;
  /// Marginal cost per *additional* location relative to the previous
  /// (cheaper) operating point [USD/year]; 0 for the first point.
  double marginal_cost_per_location_year_usd = 0.0;
};

/// Evaluates the economics along a long-tail curve for a profile with
/// `total_locations`. Points are ordered from fewest-served (cheapest) to
/// most-served, so marginal costs describe the cost of reaching deeper
/// into the tail. Throws std::invalid_argument on an empty curve or zero
/// locations.
[[nodiscard]] std::vector<ServingEconomics> longtail_economics(
    const std::vector<LongTailPoint>& curve, std::uint64_t total_locations,
    const CostModel& cost);

/// Collectable annual revenue if every location that can afford the plan
/// at the 2% rule subscribes at the plan price (an optimistic take-rate
/// ceiling): affordable_locations * 12 * monthly price.
[[nodiscard]] double annual_revenue_ceiling_usd(
    const afford::AffordabilityAnalyzer& analyzer,
    const afford::ServicePlan& plan);

}  // namespace leodivide::core
