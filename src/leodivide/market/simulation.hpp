#pragma once
// The multi-operator market simulator: runs the paper's sizing ->
// affordability pipeline once per operator under a shared-spectrum regime
// and adds the market-level outputs the single-operator pipeline cannot
// produce — per-operator cell-win tallies, Jain-style served-fraction
// fairness, and unserved-cell attribution (capacity wall vs sharing-regime
// casualty). Each operator keeps one $/location-year: the cost of its
// cheapest multi-beam deployment per location that deployment serves.
//
// Determinism contract: operators are evaluated as independent tasks over
// a runtime::Executor and merged in config order. Each cell's spectrum
// zone is resolved once per run into one table that every operator and the
// fairness scan share. Capped sizing is core::size_with_cap over that table
// and the operator's per-zone capacities, and the fairness scan is a
// map_reduce of integer tallies. The report is
// byte-identical for every thread count, and a single-operator Starlink
// market under the exclusive policy reproduces the existing core/ +
// afford/ pipeline bit-for-bit.

#include <vector>

#include "leodivide/afford/affordability.hpp"
#include "leodivide/core/oversubscription.hpp"
#include "leodivide/core/sizing.hpp"
#include "leodivide/demand/dataset.hpp"
#include "leodivide/market/fairness.hpp"
#include "leodivide/market/operator.hpp"
#include "leodivide/market/split.hpp"

namespace leodivide::runtime {
class Executor;
}

namespace leodivide::market {

/// One market scenario.
struct MarketConfig {
  std::vector<OperatorConfig> operators;
  SpectrumSplitConfig split;
  double beamspread = 10.0;
  double oversub_cap = core::kFccOversubscriptionCap;

  /// Exact (bit-level) equality; snapshot round-trip tests rely on it.
  friend bool operator==(const MarketConfig&, const MarketConfig&) = default;
};

/// Validates a scenario: at least one operator, unique non-empty names,
/// every operator valid (market::validate), a valid split config,
/// beamspread >= 1 and oversub_cap > 0. Throws std::invalid_argument.
void validate(const MarketConfig& config);

/// Everything the pipeline produces for one operator under the split.
struct OperatorOutcome {
  std::string name;

  /// Usable fraction of the operator's user-downlink spectrum feeding the
  /// cost figure (zone-averaged under kFairShare).
  double economic_share = 0.0;

  core::SizingResult full;    ///< full-service sizing (spectrum-independent)
  core::SizingResult capped;  ///< cap-bounded sizing under the split
  double served_cell_fraction = 0.0;
  double served_location_fraction = 0.0;
  /// Osoro-Oughton annual cost of the cheapest multi-beam deployment at the
  /// economic share (the last core::longtail_curve point) per location it
  /// serves; 0 when that deployment serves no one.
  double cost_per_location_year_usd = 0.0;
  afford::PlanAffordability affordability;

  /// Exact (bit-level) equality; snapshot round-trip tests rely on it.
  friend bool operator==(const OperatorOutcome&,
                         const OperatorOutcome&) = default;
};

/// The market-level result.
struct MarketReport {
  SplitPolicy policy = SplitPolicy::kExclusive;
  double beamspread = 0.0;
  double oversub_cap = 0.0;
  std::vector<OperatorOutcome> operators;  ///< config order
  FairnessReport fairness;

  /// Exact (bit-level) equality; snapshot round-trip tests rely on it.
  friend bool operator==(const MarketReport&, const MarketReport&) = default;
};

/// Driver. Construction validates the scenario (throws
/// std::invalid_argument); run() is const and reusable across profiles.
class MarketSimulation {
 public:
  explicit MarketSimulation(MarketConfig config);

  [[nodiscard]] const MarketConfig& config() const noexcept { return config_; }

  /// Runs every operator's pipeline (as executor tasks, merged in config
  /// order) and the fairness scans. Byte-identical for every executor
  /// concurrency. Throws std::invalid_argument on an empty profile and
  /// whatever the underlying pipeline throws (e.g. no un(der)served
  /// locations for the affordability view).
  [[nodiscard]] MarketReport run(const demand::DemandProfile& profile,
                                 runtime::Executor& executor) const;

  /// As above, on the process-global executor (LEODIVIDE_THREADS).
  [[nodiscard]] MarketReport run(const demand::DemandProfile& profile) const;

 private:
  MarketConfig config_;
};

}  // namespace leodivide::market
