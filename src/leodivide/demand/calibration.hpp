#pragma once
// Calibration constants and distributions anchored to every statistic the
// paper reports. The real inputs (FCC National Broadband Map, Census ACS)
// are not redistributable; this module captures the statistics the paper's
// analysis actually consumes, so the synthetic generator reproduces the
// paper's numbers exactly. See DESIGN.md ("Substitutions") for the full
// derivation of each constant.

#include <array>
#include <cstdint>

#include "leodivide/stats/interpolate.hpp"

namespace leodivide::demand::paper {

// ---- Figure 1 / Section 2.2.1 statistics -------------------------------

/// Total un(der)served residential locations. Derived from the paper: the
/// 22,428 locations served above 20:1 are "0.48% of total".
inline constexpr std::uint64_t kTotalLocations = 4'672'500;

/// The five cells with more locations than a full-capacity cell can carry
/// at 20:1 oversubscription (the ">3465 locations" cells). Their existence
/// and sum are pinned by the paper: sum = 22,428; max = 5,998; count = 5
/// (22,428 - 5128 unservable = 17,300 = 5 x 3460 at the rounded 17.3 Gbps).
inline constexpr std::array<std::uint32_t, 5> kPlantedPeakCells{5998, 4580,
                                                                4200, 3900,
                                                                3750};

/// Sum of kPlantedPeakCells — the locations served above 20:1 in the
/// full-service deployment (F1).
inline constexpr std::uint64_t kPeakCellLocationSum = 22'428;

/// Published percentiles of the per-cell distribution (Fig 1).
inline constexpr double kPerCellP90 = 552.0;
inline constexpr double kPerCellP99 = 1437.0;
inline constexpr double kPerCellMax = 5998.0;

// ---- Table 2 reverse-engineered sizing constants ------------------------

/// Every row of the paper's Table 2 satisfies N(s) * (1 + 20 s) = K with
/// K constant per scenario to within 1e-4 relative spread. K is the
/// "cell-coverage units" the constellation must supply given the binding
/// cell's latitude; see core/sizing.
inline constexpr double kKFullService = 1'665'076.0;
inline constexpr double kK20To1 = 1'691'819.0;

/// Starlink shell-1 inclination [deg] used by the latitude-density model.
inline constexpr double kInclinationDeg = 53.0;

/// Latitude [deg] whose Walker-density satellite requirement equals K for
/// a given cell area: K * A = 2 pi^2 R^2 sqrt(sin^2 i - sin^2 phi).
/// Throws std::domain_error if K is unreachable at this inclination.
[[nodiscard]] double binding_latitude_for_k(double k, double cell_area_km2,
                                            double inclination_deg =
                                                kInclinationDeg);

// ---- Affordability constants (Section 4 / Figure 4) ---------------------

/// Minimum county median income implied by Fig 4's curve endpoints
/// (proportion 0.050 at $120/mo => $28,800/yr).
inline constexpr double kMinCountyIncomeUsd = 28'800.0;

/// Location-weighted fraction of un(der)served locations in counties whose
/// median income cannot afford Starlink with Lifeline ($66,450 threshold):
/// "nearly 3 million" of 4.67M.
inline constexpr double kFractionBelowLifelineThreshold = 0.635;

/// ... and without Lifeline ($72,000 threshold): 74.5% (abstract; 3.5M).
inline constexpr double kFractionBelowStarlinkThreshold = 0.745;

/// Richest-county median income for the synthetic income distribution
/// (loosely the top US county; the right tail does not affect any result).
inline constexpr double kMaxCountyIncomeUsd = 150'000.0;

// ---- Calibrated distributions -------------------------------------------

/// Quantile function of un(der)served locations per cell for cells with at
/// least one such location. Anchors: Fig 2's served-fraction floor implies
/// F(62) ~= 0.36; Fig 1 pins p90 = 552 and p99 = 1437; the upper anchor
/// 3400 keeps every *generated* cell below the 3465-location 20:1 limit so
/// that exactly the five planted cells exceed it.
[[nodiscard]] stats::PiecewiseQuantile cell_count_quantile();

/// Location-weighted quantile function of county median income for
/// un(der)served locations.
[[nodiscard]] stats::PiecewiseQuantile income_quantile();

}  // namespace leodivide::demand::paper
