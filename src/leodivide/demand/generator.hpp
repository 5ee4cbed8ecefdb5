#pragma once
// Synthetic national demand generator. Produces a DemandProfile over real
// CONUS geography whose per-cell count distribution and location-weighted
// county income distribution match every statistic the paper reports (see
// calibration.hpp and DESIGN.md). Generation is deterministic for a given
// config and byte-identical for every executor thread count.

#include <array>
#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "leodivide/demand/dataset.hpp"
#include "leodivide/hex/hexgrid.hpp"
#include "leodivide/stats/interpolate.hpp"

namespace leodivide::runtime {
class Executor;
}

namespace leodivide::demand {

/// Generator parameters.
struct GeneratorConfig {
  std::uint64_t seed = 42;

  /// Service-cell resolution (Starlink uses the res-5 equivalent).
  int resolution = hex::kServiceCellResolution;

  /// County-equivalents are groups of service cells sharing a parent cell
  /// at this coarser resolution.
  int county_resolution = 3;

  /// Overall scale knob: 1.0 reproduces the paper's 4.67M locations;
  /// smaller values generate proportionally smaller datasets for tests.
  double scale = 1.0;

  /// Plant the five >3465-location peak cells from the paper. Disabled
  /// automatically when scale is too small to fit them.
  bool plant_peak_cells = true;

  /// Cells that need the maximum beam count are constrained to latitudes
  /// at or above this bound so the calibrated binding cells stay binding.
  double heavy_cell_min_lat_deg = 37.0;
};

/// Deterministic synthetic generator, calibrated to the paper.
class SyntheticGenerator {
 public:
  /// Throws std::invalid_argument for a scale outside (0, 1] or so small
  /// that the location total rounds to zero, and for a county resolution
  /// not coarser than the cell resolution.
  explicit SyntheticGenerator(GeneratorConfig config = {});

  /// Cell-level profile: per-cell un(der)served counts + county incomes.
  /// Runs the CONUS polyfill and peak-cell placement scans on `executor`;
  /// the profile is byte-identical for every thread count.
  [[nodiscard]] DemandProfile generate_profile(
      runtime::Executor& executor) const;

  /// As above, on the process-global executor (LEODIVIDE_THREADS).
  [[nodiscard]] DemandProfile generate_profile() const;

  [[nodiscard]] const GeneratorConfig& config() const noexcept {
    return config_;
  }

  /// Geographic targets of the five planted peak cells. The first two sit
  /// at the latitudes derived from the paper's Table-2 constants (the
  /// full-service and 20:1 binding cells); see calibration.hpp.
  [[nodiscard]] static std::array<geo::GeoPoint, 5> planted_targets(
      int resolution);

 private:
  GeneratorConfig config_;
};

// The synthesis steps SyntheticGenerator and RegionGenerator (region.hpp)
// share. Each generator keeps its own count-to-cell assignment.

/// `n` per-cell location counts drawn at the stratified points (i + 0.5) / n
/// of `quantile`, each at least 1, then fixed up to sum to `total` exactly:
/// +-1 per cell round-robin from cell n / 2, never raising a count above
/// `max_count` or lowering one below 1. The draw runs on `executor`; the
/// counts are the same for every thread count. Throws std::invalid_argument
/// unless n <= total <= n * max_count, the range in which the fix-up ends.
[[nodiscard]] std::vector<std::uint32_t> stratified_counts(
    const stats::PiecewiseQuantile& quantile, std::size_t n,
    std::uint64_t total, std::uint32_t max_count, runtime::Executor& executor);

/// 0..n-1 in a Fisher-Yates order drawn from stats::Pcg32(seed, stream).
[[nodiscard]] std::vector<std::size_t> shuffled_indices(std::size_t n,
                                                        std::uint64_t seed,
                                                        std::uint64_t stream);

/// County-equivalents for `cells`: each group of cells whose centres share
/// a cell at `county_resolution` becomes one county, centred on that parent
/// cell. Groups are sorted by parent and then by the key
/// stats::mix_seed(seed, parent), which decorrelates income from geography.
/// In that order each county takes `income_quantile` rounded at the
/// midpoint of its cumulative location weight, so the location-weighted
/// income CDF follows the quantile up to county granularity; FIPS codes
/// number the counties in that order, led by `fips_lead`. With
/// `smallest_county_income_usd`, the county with the fewest locations (the
/// first such in key order) takes that income instead. Sets every cell's
/// county_index; the table is the same for every thread count.
[[nodiscard]] CountyTable assign_counties(
    std::vector<CellDemand>& cells, const hex::HexGrid& grid,
    int county_resolution, std::uint64_t seed,
    const stats::PiecewiseQuantile& income_quantile, char fips_lead,
    std::optional<double> smallest_county_income_usd,
    runtime::Executor& executor);

/// Consumes `--scale S` / `--seed N` (or `--flag=V`) at argv[i] into
/// `config`, like runtime::parse_threads_arg. Throws std::runtime_error
/// naming the flag when the value is missing, is not a whole number field,
/// or is a scale outside (0, 1] or too small to give one location.
bool parse_cli_arg(int argc, char** argv, int& i, GeneratorConfig& config);

/// Parses a whole-field generator scale, as `--scale` does: throws
/// std::runtime_error naming `name` unless `text` is a number in (0, 1]
/// that gives at least one location.
[[nodiscard]] double parse_scale(std::string_view name, std::string_view text);

}  // namespace leodivide::demand
