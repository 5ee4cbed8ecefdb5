#include "leodivide/core/economics.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace leodivide::core {

double CostModel::annual_cost_usd(double satellites) const {
  if (!std::isfinite(satellites) || satellites < 0.0) {
    throw std::invalid_argument("annual_cost_usd: negative fleet");
  }
  if (!std::isfinite(satellite_capex_usd) || satellite_capex_usd < 0.0 ||
      !std::isfinite(launch_capex_usd) || launch_capex_usd < 0.0 ||
      !std::isfinite(ground_capex_usd) || ground_capex_usd < 0.0 ||
      !std::isfinite(annual_opex_fraction) || annual_opex_fraction < 0.0) {
    throw std::invalid_argument("CostModel: malformed capex/opex inputs");
  }
  if (!std::isfinite(satellite_lifetime_years) ||
      satellite_lifetime_years <= 0.0) {
    throw std::invalid_argument("CostModel: non-positive lifetime");
  }
  const double total_capex =
      satellites * (satellite_capex_usd + launch_capex_usd) + ground_capex_usd;
  return total_capex / satellite_lifetime_years +
         annual_opex_fraction * total_capex;
}

double cost_per_location_year_usd(const CostModel& cost,
                                  const LongTailPoint& point,
                                  std::uint64_t total_locations) {
  const std::uint64_t served = total_locations > point.locations_unserved
                                   ? total_locations - point.locations_unserved
                                   : 0;
  return served == 0 ? 0.0
                     : cost.annual_cost_usd(point.satellites) /
                           static_cast<double>(served);
}

std::vector<ServingEconomics> longtail_economics(
    const std::vector<LongTailPoint>& curve, std::uint64_t total_locations,
    const CostModel& cost) {
  if (curve.empty()) {
    throw std::invalid_argument("longtail_economics: empty curve");
  }
  if (total_locations == 0) {
    throw std::invalid_argument("longtail_economics: zero locations");
  }
  // Order from fewest served (largest unserved) to most served.
  std::vector<LongTailPoint> ordered(curve.begin(), curve.end());
  std::sort(ordered.begin(), ordered.end(),
            [](const LongTailPoint& a, const LongTailPoint& b) {
              return a.locations_unserved > b.locations_unserved;
            });
  std::vector<ServingEconomics> out;
  out.reserve(ordered.size());
  for (const auto& p : ordered) {
    ServingEconomics e;
    e.locations_unserved = p.locations_unserved;
    e.satellites = p.satellites;
    e.annual_cost_usd = cost.annual_cost_usd(p.satellites);
    e.locations_served = total_locations > p.locations_unserved
                             ? total_locations - p.locations_unserved
                             : 0;
    e.cost_per_location_year_usd =
        cost_per_location_year_usd(cost, p, total_locations);
    if (!out.empty()) {
      const auto& prev = out.back();
      const double extra_locs = static_cast<double>(e.locations_served) -
                                static_cast<double>(prev.locations_served);
      const double extra_cost = e.annual_cost_usd - prev.annual_cost_usd;
      e.marginal_cost_per_location_year_usd =
          extra_locs > 0.0 ? extra_cost / extra_locs : 0.0;
    }
    out.push_back(e);
  }
  return out;
}

double annual_revenue_ceiling_usd(
    const afford::AffordabilityAnalyzer& analyzer,
    const afford::ServicePlan& plan) {
  const afford::PlanAffordability r = analyzer.evaluate(plan);
  const double affordable =
      analyzer.income().total_locations() - r.locations_unable;
  return affordable * plan.monthly_usd * 12.0;
}

}  // namespace leodivide::core
