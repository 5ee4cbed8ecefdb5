#include "leodivide/afford/affordability.hpp"

#include <stdexcept>

namespace leodivide::afford {

double income_required_usd(double monthly_usd, double threshold) {
  if (threshold <= 0.0) {
    throw std::invalid_argument("income_required_usd: threshold must be > 0");
  }
  return monthly_usd * 12.0 / threshold;
}

AffordabilityAnalyzer::AffordabilityAnalyzer(
    const demand::DemandProfile& profile)
    : income_(profile) {}

PlanAffordability AffordabilityAnalyzer::evaluate(const ServicePlan& plan,
                                                  double threshold) const {
  PlanAffordability out;
  out.plan = plan;
  out.income_required_usd = income_required_usd(plan.monthly_usd, threshold);
  // Counties strictly below the required income cannot afford the plan.
  // weight_at_most is inclusive, so probe just under the threshold.
  const double epsilon = 1e-6;
  out.locations_unable =
      income_.locations_with_income_at_most(out.income_required_usd - epsilon);
  out.fraction_unable = out.locations_unable / income_.total_locations();
  return out;
}

std::vector<PlanAffordability> AffordabilityAnalyzer::evaluate_paper_plans()
    const {
  std::vector<PlanAffordability> out;
  for (const auto& plan : paper_plans()) out.push_back(evaluate(plan));
  return out;
}

double AffordabilityAnalyzer::curve_end(const ServicePlan& plan) const {
  return plan.monthly_usd / (income_.min_income() / 12.0);
}

}  // namespace leodivide::afford
