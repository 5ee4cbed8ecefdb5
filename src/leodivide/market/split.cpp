#include "leodivide/market/split.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace leodivide::market {

std::string_view to_string(SplitPolicy policy) noexcept {
  switch (policy) {
    case SplitPolicy::kExclusive: return "exclusive";
    case SplitPolicy::kProportional: return "proportional";
    case SplitPolicy::kFairShare: return "fairshare";
  }
  return "unknown";
}

void validate(const SpectrumSplitConfig& config) {
  if (config.policy != SplitPolicy::kExclusive &&
      config.policy != SplitPolicy::kProportional &&
      config.policy != SplitPolicy::kFairShare) {
    throw std::invalid_argument("SpectrumSplitConfig: unknown policy");
  }
  if (!std::isfinite(config.zone_deg) || config.zone_deg <= 0.0 ||
      config.zone_deg > 180.0) {
    throw std::invalid_argument("SpectrumSplitConfig: zone_deg outside "
                                "(0, 180]");
  }
  if (!std::isfinite(config.priority_weight) ||
      config.priority_weight < 0.0 || config.priority_weight > 1.0) {
    throw std::invalid_argument(
        "SpectrumSplitConfig: priority_weight outside [0, 1]");
  }
}

namespace {

bool user_downlink_capable(const spectrum::Band& band) noexcept {
  return band.usage == spectrum::BeamUsage::kUserDownlink ||
         band.usage == spectrum::BeamUsage::kUserOrGatewayDownlink;
}

}  // namespace

SpectrumSplit::SpectrumSplit(const std::vector<OperatorConfig>& operators,
                             SpectrumSplitConfig config)
    : config_(config), n_(operators.size()) {
  validate(config_);
  if (n_ == 0) {
    throw std::invalid_argument("SpectrumSplit: no operators");
  }
  // Elementary-interval sweep over every operator's user-downlink band
  // edges: between two adjacent edges the claimant set is constant, so
  // each elementary interval is credited whole.
  std::vector<double> edges;
  for (const OperatorConfig& op : operators) {
    for (const spectrum::Band& band : op.bands) {
      if (!user_downlink_capable(band)) continue;
      edges.push_back(band.lo_ghz);
      edges.push_back(band.hi_ghz);
    }
  }
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());

  // usable[op][p]: MHz operator `op` keeps when `p` has zone priority.
  std::vector<double> total(n_, 0.0);
  std::vector<std::vector<double>> usable(
      n_, std::vector<double>(n_, 0.0));
  has_contested_.assign(n_, false);
  std::vector<std::size_t> claimants;
  for (std::size_t e = 0; e + 1 < edges.size(); ++e) {
    const double lo = edges[e];
    const double hi = edges[e + 1];
    const double mid = lo + (hi - lo) / 2.0;
    const double width_mhz = (hi - lo) * 1000.0;
    claimants.clear();
    for (std::size_t o = 0; o < n_; ++o) {
      for (const spectrum::Band& band : operators[o].bands) {
        if (user_downlink_capable(band) && band.lo_ghz <= mid &&
            mid < band.hi_ghz) {
          claimants.push_back(o);
          break;
        }
      }
    }
    if (claimants.empty()) continue;
    const double k = static_cast<double>(claimants.size());
    for (std::size_t o : claimants) {
      total[o] += width_mhz;
      if (claimants.size() > 1) has_contested_[o] = true;
    }
    for (std::size_t p = 0; p < n_; ++p) {
      const bool priority_claims =
          std::find(claimants.begin(), claimants.end(), p) != claimants.end();
      for (std::size_t o : claimants) {
        double credit = 0.0;
        switch (config_.policy) {
          case SplitPolicy::kExclusive:
            credit = width_mhz;
            break;
          case SplitPolicy::kProportional:
            credit = width_mhz / k;
            break;
          case SplitPolicy::kFairShare:
            if (claimants.size() == 1) {
              credit = width_mhz;  // uncontested: claimant keeps it whole
            } else if (!priority_claims) {
              credit = width_mhz / k;  // priority absent: equal split
            } else if (o == p) {
              credit = width_mhz * config_.priority_weight;
            } else {
              credit = width_mhz * (1.0 - config_.priority_weight) / (k - 1.0);
            }
            break;
        }
        usable[o][p] += credit;
      }
    }
  }

  matrix_.assign(n_ * n_, 0.0);
  for (std::size_t o = 0; o < n_; ++o) {
    if (total[o] <= 0.0) {
      throw std::invalid_argument("SpectrumSplit: operator \"" +
                                  operators[o].name +
                                  "\" has no user-downlink spectrum");
    }
    for (std::size_t p = 0; p < n_; ++p) {
      matrix_[o * n_ + p] = usable[o][p] / total[o];
    }
  }
}

std::size_t SpectrumSplit::priority_operator(double lat_deg) const {
  if (config_.policy != SplitPolicy::kFairShare) return 0;
  if (!std::isfinite(lat_deg) || lat_deg < -90.0 || lat_deg > 90.0) {
    throw std::invalid_argument("priority_operator: latitude outside "
                                "[-90, 90]");
  }
  const auto zone = static_cast<std::size_t>(
      std::floor((lat_deg + 90.0) / config_.zone_deg));
  return zone % n_;
}

double SpectrumSplit::share(std::size_t op, std::size_t priority_op) const {
  if (op >= n_ || priority_op >= n_) {
    throw std::out_of_range("SpectrumSplit::share: index out of range");
  }
  return matrix_[op * n_ + priority_op];
}

bool SpectrumSplit::uniform(std::size_t op) const {
  if (op >= n_) {
    throw std::out_of_range("SpectrumSplit::uniform: index out of range");
  }
  return config_.policy != SplitPolicy::kFairShare || !has_contested_[op];
}

double SpectrumSplit::economic_share(std::size_t op) const {
  if (op >= n_) {
    throw std::out_of_range("SpectrumSplit::economic_share: out of range");
  }
  if (uniform(op)) return matrix_[op * n_];  // exact: no averaging round-off
  double sum = 0.0;
  for (std::size_t p = 0; p < n_; ++p) sum += matrix_[op * n_ + p];
  return sum / static_cast<double>(n_);
}

}  // namespace leodivide::market
