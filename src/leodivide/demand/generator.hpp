#pragma once
// Synthetic national demand generator. Produces a DemandProfile over real
// CONUS geography whose per-cell count distribution and location-weighted
// county income distribution match every statistic the paper reports (see
// calibration.hpp and DESIGN.md). Generation is deterministic for a given
// config and byte-identical for every executor thread count.

#include <array>
#include <cstdint>
#include <string_view>

#include "leodivide/demand/dataset.hpp"
#include "leodivide/hex/hexgrid.hpp"

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
