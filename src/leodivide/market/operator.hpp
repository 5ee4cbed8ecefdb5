#pragma once
// One LEO market participant. The paper's pipeline models Starlink alone;
// the real market is Starlink, OneWeb and Kuiper competing over shared
// Ku/Ka spectrum. An OperatorConfig bundles everything the existing
// pipeline needs to size and price one of them: a Walker shell set
// (orbit/shells), a Schedule-S style band table (spectrum/band), beam-plan
// parameters, a retail plan (afford/plan), and the capex/opex cost inputs
// of core::CostModel, which follows the Osoro-Oughton techno-economic
// decomposition (arXiv 2108.10834) that costs exactly these three
// constellations.

#include <cstdint>
#include <string>
#include <vector>

#include "leodivide/afford/plan.hpp"
#include "leodivide/core/economics.hpp"
#include "leodivide/core/sizing.hpp"
#include "leodivide/orbit/shells.hpp"
#include "leodivide/spectrum/band.hpp"

namespace leodivide::market {

/// One market participant.
struct OperatorConfig {
  std::string name;
  std::vector<orbit::WalkerShell> shells;  ///< deployed Walker shells
  std::vector<spectrum::Band> bands;       ///< Schedule-S style band table
  std::uint32_t beams_per_full_cell = 4;
  double spectral_efficiency_bps_hz = spectrum::kPaperSpectralEfficiency;

  /// Inclination the single-inclination sizing abstraction uses; must be at
  /// least the highest latitude of the region under study (CONUS: ~49.4 N)
  /// or coverage_units() has no solution at the binding cell.
  double sizing_inclination_deg = 53.0;

  afford::ServicePlan plan;  ///< retail plan priced against afford/
  core::CostModel costs;

  /// Exact (bit-level) equality; snapshot round-trip tests rely on it.
  friend bool operator==(const OperatorConfig&,
                         const OperatorConfig&) = default;

  /// The operator's full spectrum plan. Throws std::invalid_argument on an
  /// empty or malformed band table (SpectrumPlan validates).
  [[nodiscard]] spectrum::SpectrumPlan spectrum() const;

  /// Sizing model over the operator's full spectrum. With the Starlink
  /// preset this is bit-identical to the default core::SizingModel{}, so
  /// the market layer is a strict generalization of the single-operator
  /// pipeline.
  [[nodiscard]] core::SizingModel sizing_model() const;

  /// Sizing model with every user-downlink-capable band's width scaled by
  /// `spectrum_share` in (0, 1] — the per-cell capacity an operator keeps
  /// under a spectrum split. A share of exactly 1.0 returns the unscaled
  /// model (bit-identical, no rescaling round-off). Throws
  /// std::invalid_argument for shares outside (0, 1].
  [[nodiscard]] core::SizingModel sizing_model(double spectrum_share) const;
};

/// Validates one operator config: non-empty name, at least one shell, a
/// well-formed band table with positive user-downlink spectrum, positive
/// beam/efficiency parameters, finite non-negative plan price, and finite
/// positive cost parameters. Throws std::invalid_argument.
void validate(const OperatorConfig& config);

/// Starlink preset: Gen1 shells, the paper's Schedule-S table and beam
/// plan, the $120/mo residential plan. Its sizing_model() reproduces the
/// default core::SizingModel{} bit-for-bit.
[[nodiscard]] OperatorConfig starlink_operator();

/// OneWeb preset: polar Ku constellation (87.9 deg / 1200 km), Ku user
/// downlink overlapping Starlink's 10.7-12.7 GHz.
[[nodiscard]] OperatorConfig oneweb_operator();

/// Kuiper preset: three mid-inclination shells, Ka user downlink
/// (17.7-20.2 GHz) overlapping Starlink's Ka bands.
[[nodiscard]] OperatorConfig kuiper_operator();

/// The three-operator market the presets describe, Starlink first.
[[nodiscard]] std::vector<OperatorConfig> default_market();

}  // namespace leodivide::market
