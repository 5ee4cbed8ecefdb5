#include "leodivide/demand/region.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <numeric>
#include <stdexcept>

#include "leodivide/hex/polyfill.hpp"
#include "leodivide/stats/rng.hpp"

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
  const hex::HexGrid grid;
  const auto region = hex::polyfill(grid, spec_.outline, spec_.resolution);
  if (region.cells.empty()) {
    throw std::runtime_error("RegionGenerator: outline contains no cells");
  }

  // Stratified counts.
  const double mean = spec_.cell_quantile.mean();
  auto n_cells = static_cast<std::size_t>(std::llround(
      static_cast<double>(spec_.total_locations) / std::max(1.0, mean)));
  n_cells = std::clamp<std::size_t>(n_cells, 1, region.cells.size());
  std::vector<std::uint32_t> counts(n_cells);
  for (std::size_t i = 0; i < n_cells; ++i) {
    const double p =
        (static_cast<double>(i) + 0.5) / static_cast<double>(n_cells);
    counts[i] = static_cast<std::uint32_t>(
        std::max<long long>(1, std::llround(spec_.cell_quantile(p))));
  }
  // Exact-total fixup.
  long long diff = static_cast<long long>(spec_.total_locations);
  for (std::uint32_t c : counts) diff -= c;
  std::size_t cursor = n_cells / 2;
  std::size_t stuck_guard = 0;
  while (diff != 0 && stuck_guard < 100 * n_cells + 100) {
    auto& c = counts[cursor];
    if (diff > 0) {
      ++c;
      --diff;
    } else if (c > 1) {
      --c;
      ++diff;
    }
    cursor = (cursor + 1) % n_cells;
    ++stuck_guard;
  }

  // Seeded geographic shuffle.
  std::vector<std::size_t> order(region.cells.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  stats::Pcg32 rng(spec_.seed, /*stream=*/11);
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1],
              order[rng.next_below(static_cast<std::uint32_t>(i))]);
  }

  std::vector<CellDemand> cells;
  cells.reserve(n_cells);
  for (std::size_t i = 0; i < n_cells; ++i) {
    cells.push_back(CellDemand{region.cells[order[i]],
                               region.centers[order[i]], counts[i], 0});
  }

  // Counties: coarse-parent groups, income stratified over location weight
  // in hash-shuffled order (decorrelated from geography).
  std::map<hex::CellId, std::vector<std::size_t>> by_parent;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    by_parent[grid.parent_of(cells[i].cell, spec_.county_resolution)]
        .push_back(i);
  }
  struct Draft {
    hex::CellId parent;
    std::uint64_t weight = 0;
    std::uint64_t key = 0;
  };
  std::vector<Draft> drafts;
  for (const auto& [parent, members] : by_parent) {
    Draft d;
    d.parent = parent;
    for (std::size_t i : members) d.weight += cells[i].underserved;
    d.key = stats::mix_seed(spec_.seed, parent.bits());
    drafts.push_back(d);
  }
  std::sort(drafts.begin(), drafts.end(),
            [](const Draft& a, const Draft& b) { return a.key < b.key; });
  const double total_weight = static_cast<double>(
      std::accumulate(drafts.begin(), drafts.end(), std::uint64_t{0},
                      [](std::uint64_t acc, const Draft& d) {
                        return acc + d.weight;
                      }));
  CountyTable counties;
  std::map<hex::CellId, std::uint32_t> county_of;
  double cum = 0.0;
  for (std::size_t i = 0; i < drafts.size(); ++i) {
    const double mid =
        (cum + static_cast<double>(drafts[i].weight) / 2.0) / total_weight;
    cum += static_cast<double>(drafts[i].weight);
    County county;
    county.fips = std::to_string(10000 + i);
    county.fips[0] = '8';
    county.centroid = grid.center_of(drafts[i].parent);
    county.median_income_usd = std::round(spec_.income_quantile(mid));
    county.underserved_locations = drafts[i].weight;
    county_of[drafts[i].parent] = counties.add(std::move(county));
  }
  for (auto& cell : cells) {
    cell.county_index =
        county_of.at(grid.parent_of(cell.cell, spec_.county_resolution));
  }
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
