#pragma once
// Parametric region generator — the paper's stated future work ("we leave
// the analysis of Starlink's impact on other countries' connectivity goals
// as future work"). A RegionSpec describes any service region: its
// geographic outline, how many un(der)served locations it holds, how
// concentrated they are (a per-cell quantile function), and its income
// distribution. RegionGenerator turns a spec into a DemandProfile that the
// entire core analysis runs on unchanged.

#include <string>

#include "leodivide/demand/dataset.hpp"
#include "leodivide/geo/polygon.hpp"
#include "leodivide/hex/hexgrid.hpp"
#include "leodivide/stats/interpolate.hpp"

namespace leodivide::demand {

/// A hypothetical (or real) service region.
struct RegionSpec {
  std::string name;

  /// Region outline (lat/lon polygon). Defaults to a placeholder triangle;
  /// set it to the real region.
  geo::Polygon outline{
      std::vector<geo::GeoPoint>{{0.0, 0.0}, {1.0, 0.0}, {0.0, 1.0}}};

  /// Total un(der)served locations in the region.
  std::uint64_t total_locations = 100'000;

  /// Quantile function of locations per non-empty cell.
  stats::PiecewiseQuantile cell_quantile{
      {{0.0, 1.0}, {0.9, 300.0}, {1.0, 2000.0}}};

  /// Location-weighted quantile function of county median income [USD-
  /// equivalent per year].
  stats::PiecewiseQuantile income_quantile{
      {{0.0, 5'000.0}, {0.5, 15'000.0}, {1.0, 60'000.0}}};

  std::uint64_t seed = 7;
  int resolution = hex::kServiceCellResolution;
  int county_resolution = 3;
};

/// Generates a cell-level DemandProfile for a region spec on the national
/// generator's synthesis core (generator.hpp): counts are stratified draws
/// from the cell quantile, assigned in order to a seeded shuffle of the
/// region's cells; counties come from assign_counties over the income
/// quantile.
class RegionGenerator {
 public:
  /// Throws std::invalid_argument for zero locations or a county resolution
  /// not coarser than the cell resolution.
  explicit RegionGenerator(RegionSpec spec);

  /// Runs on the process-global executor; the profile is byte-identical for
  /// every thread count. Throws std::runtime_error for an outline holding no
  /// cell and std::invalid_argument for a total that the outline's cells
  /// cannot hold in 32-bit counts.
  [[nodiscard]] DemandProfile generate() const;
  [[nodiscard]] const RegionSpec& spec() const noexcept { return spec_; }

 private:
  RegionSpec spec_;
};

/// Ready-made hypothetical regions for cross-country comparison studies
/// (examples/region_study.cpp). Shapes and parameters are illustrative,
/// not census data.

/// A compact, densely settled region: small area, highly concentrated
/// demand, mid incomes (think a populous river delta).
[[nodiscard]] RegionSpec dense_compact_region();

/// A large sparse region: big area, low density, thin tail, low incomes
/// (think a sparsely settled plateau).
[[nodiscard]] RegionSpec sparse_expansive_region();

/// A mid-latitude temperate region resembling the US profile in miniature.
[[nodiscard]] RegionSpec temperate_mixed_region();

}  // namespace leodivide::demand
