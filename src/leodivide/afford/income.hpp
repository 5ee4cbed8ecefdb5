#pragma once
// Location-weighted income view over a demand profile: each un(der)served
// location is assigned its county's median household income (the paper's
// assumption), producing the weighted income distribution that drives every
// affordability result.

#include "leodivide/demand/dataset.hpp"
#include "leodivide/stats/cdf.hpp"

namespace leodivide::afford {

/// Weighted county-income distribution over un(der)served locations.
class IncomeView {
 public:
  /// Builds from a profile's county table. Throws std::invalid_argument if
  /// no county has any un(der)served location.
  explicit IncomeView(const demand::DemandProfile& profile);

  /// Number of locations in counties with median income <= `income_usd`.
  [[nodiscard]] double locations_with_income_at_most(double income_usd) const;

  /// Location-weighted income quantile.
  [[nodiscard]] double income_quantile(double p) const;

  [[nodiscard]] double total_locations() const noexcept;
  [[nodiscard]] double min_income() const noexcept;

 private:
  stats::WeightedCdf cdf_;
};

}  // namespace leodivide::afford
