#include "leodivide/demand/region.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "leodivide/demand/generator.hpp"
#include "leodivide/hex/polyfill.hpp"
#include "leodivide/runtime/executor.hpp"

namespace leodivide::demand {

RegionGenerator::RegionGenerator(RegionSpec spec) : spec_(std::move(spec)) {
  if (spec_.total_locations == 0) {
    throw std::invalid_argument("RegionGenerator: zero locations");
  }
  if (spec_.county_resolution >= spec_.resolution) {
    throw std::invalid_argument(
        "RegionGenerator: county_resolution must be coarser than resolution");
  }
}

DemandProfile RegionGenerator::generate() const {
  runtime::Executor& executor = runtime::global_executor();
  const hex::HexGrid grid;
  const auto region =
      hex::polyfill(grid, spec_.outline, spec_.resolution, executor);
  if (region.cells.empty()) {
    throw std::runtime_error("RegionGenerator: outline contains no cells");
  }

  // Stratified counts, capped only by their 32-bit type. An outline with
  // fewer cells than the spec asks for keeps them all and spreads the
  // surplus over them. The fix-up needs no iteration guard:
  // n <= llround(total / max(1, mean)) <= total (the clamp only lowers n,
  // and total >= 1), so a deficit always finds a count above 1; and every
  // increment lands, because stratified_counts rejects a total that n
  // 32-bit counts cannot hold. It takes one step per location of surplus.
  const double mean = spec_.cell_quantile.mean();
  auto n_cells = static_cast<std::size_t>(std::llround(
      static_cast<double>(spec_.total_locations) / std::max(1.0, mean)));
  n_cells = std::clamp<std::size_t>(n_cells, 1, region.cells.size());
  const std::vector<std::uint32_t> counts = stratified_counts(
      spec_.cell_quantile, n_cells, spec_.total_locations,
      std::numeric_limits<std::uint32_t>::max(), executor);

  // counts[i] goes to the i-th cell of a seeded shuffle of the region.
  const std::vector<std::size_t> order =
      shuffled_indices(region.cells.size(), spec_.seed, /*stream=*/11);
  std::vector<CellDemand> cells;
  cells.reserve(n_cells);
  for (std::size_t i = 0; i < n_cells; ++i) {
    cells.push_back(CellDemand{region.cells[order[i]],
                               region.centers[order[i]], counts[i], 0});
  }

  CountyTable counties =
      assign_counties(cells, grid, spec_.county_resolution, spec_.seed,
                      spec_.income_quantile, '8', std::nullopt, executor);
  return DemandProfile(std::move(cells), std::move(counties));
}

namespace {

geo::Polygon rectangle(double lat_lo, double lat_hi, double lon_lo,
                       double lon_hi) {
  return geo::Polygon{{{lat_lo, lon_lo},
                       {lat_hi, lon_lo},
                       {lat_hi, lon_hi},
                       {lat_lo, lon_hi}}};
}

}  // namespace

RegionSpec dense_compact_region() {
  RegionSpec spec;
  spec.name = "dense-compact (delta)";
  spec.outline = rectangle(22.0, 26.0, 88.0, 92.5);
  spec.total_locations = 900'000;
  spec.cell_quantile = stats::PiecewiseQuantile{
      {{0.0, 20.0}, {0.5, 400.0}, {0.9, 2500.0}, {1.0, 9000.0}}};
  spec.income_quantile = stats::PiecewiseQuantile{
      {{0.0, 2'000.0}, {0.5, 6'000.0}, {0.9, 15'000.0}, {1.0, 40'000.0}}};
  spec.seed = 101;
  return spec;
}

RegionSpec sparse_expansive_region() {
  RegionSpec spec;
  spec.name = "sparse-expansive (plateau)";
  spec.outline = rectangle(-30.0, -18.0, 16.0, 28.0);
  spec.total_locations = 250'000;
  spec.cell_quantile = stats::PiecewiseQuantile{
      {{0.0, 1.0}, {0.8, 40.0}, {0.99, 300.0}, {1.0, 900.0}}};
  spec.income_quantile = stats::PiecewiseQuantile{
      {{0.0, 3'000.0}, {0.5, 9'000.0}, {1.0, 50'000.0}}};
  spec.seed = 102;
  return spec;
}

RegionSpec temperate_mixed_region() {
  RegionSpec spec;
  spec.name = "temperate-mixed (US-like)";
  spec.outline = rectangle(42.0, 50.0, 2.0, 16.0);
  spec.total_locations = 600'000;
  spec.cell_quantile = stats::PiecewiseQuantile{
      {{0.0, 1.0}, {0.36, 62.0}, {0.9, 552.0}, {0.99, 1437.0}, {1.0, 3400.0}}};
  spec.income_quantile = stats::PiecewiseQuantile{
      {{0.0, 20'000.0}, {0.6, 55'000.0}, {1.0, 110'000.0}}};
  spec.seed = 103;
  return spec;
}

}  // namespace leodivide::demand
