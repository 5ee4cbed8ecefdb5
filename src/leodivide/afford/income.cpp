#include "leodivide/afford/income.hpp"

#include <stdexcept>

namespace leodivide::afford {

namespace {

stats::WeightedCdf build_cdf(const demand::DemandProfile& profile) {
  std::vector<double> incomes;
  std::vector<double> weights;
  for (const auto& county : profile.counties().all()) {
    if (county.underserved_locations == 0) continue;
    incomes.push_back(county.median_income_usd);
    weights.push_back(static_cast<double>(county.underserved_locations));
  }
  if (incomes.empty()) {
    throw std::invalid_argument("IncomeView: no un(der)served locations");
  }
  return stats::WeightedCdf(incomes, weights);
}

}  // namespace

IncomeView::IncomeView(const demand::DemandProfile& profile)
    : cdf_(build_cdf(profile)) {}

double IncomeView::locations_with_income_at_most(double income_usd) const {
  return cdf_.weight_at_most(income_usd);
}

double IncomeView::income_quantile(double p) const { return cdf_.quantile(p); }

double IncomeView::total_locations() const noexcept {
  return cdf_.total_weight();
}

double IncomeView::min_income() const noexcept { return cdf_.min(); }

}  // namespace leodivide::afford
