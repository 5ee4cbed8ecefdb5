#pragma once
// The affordability analysis of Section 4 / Figure 4: under the A4AI /
// UN Broadband Commission "1 for 2" rule, Internet service is affordable if
// it costs no more than 2% of monthly household income.

#include <vector>

#include "leodivide/afford/income.hpp"
#include "leodivide/afford/plan.hpp"

namespace leodivide::afford {

/// The A4AI "1 for 2" affordability threshold: service should cost at most
/// this fraction of monthly household income.
inline constexpr double kAffordabilityThreshold = 0.02;

/// Annual income needed for `monthly_usd` to fall within `threshold` of
/// monthly income: monthly_usd * 12 / threshold.
[[nodiscard]] double income_required_usd(
    double monthly_usd, double threshold = kAffordabilityThreshold);

/// Affordability of one plan over a demand profile.
struct PlanAffordability {
  ServicePlan plan;
  double income_required_usd = 0.0;  ///< annual income at the 2% rule
  double locations_unable = 0.0;     ///< un(der)served locations priced out
  double fraction_unable = 0.0;

  /// Exact (bit-level) equality; snapshot round-trip tests rely on it.
  friend bool operator==(const PlanAffordability&,
                         const PlanAffordability&) = default;
};

/// Affordability analyzer bound to a demand profile's income view.
class AffordabilityAnalyzer {
 public:
  explicit AffordabilityAnalyzer(const demand::DemandProfile& profile);

  /// Evaluates one plan at the given threshold.
  [[nodiscard]] PlanAffordability evaluate(
      const ServicePlan& plan,
      double threshold = kAffordabilityThreshold) const;

  /// Evaluates the paper's four plans at the 2% threshold.
  [[nodiscard]] std::vector<PlanAffordability> evaluate_paper_plans() const;

  /// Largest proportion-of-income any location would need for this plan
  /// (the x at which the plan's Figure-4 curve reaches zero): plan price /
  /// (min county income / 12).
  [[nodiscard]] double curve_end(const ServicePlan& plan) const;

  [[nodiscard]] const IncomeView& income() const noexcept { return income_; }

 private:
  IncomeView income_;
};

}  // namespace leodivide::afford
