#include "leodivide/demand/generator.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>

#include "leodivide/demand/calibration.hpp"
#include "leodivide/geo/angle.hpp"
#include "leodivide/geo/greatcircle.hpp"
#include "leodivide/geo/us_outline.hpp"
#include "leodivide/hex/polyfill.hpp"
#include "leodivide/io/cli.hpp"
#include "leodivide/obs/metrics.hpp"
#include "leodivide/obs/trace.hpp"
#include "leodivide/runtime/map_reduce.hpp"
#include "leodivide/runtime/parallel_for.hpp"
#include "leodivide/stats/rng.hpp"

namespace leodivide::demand {

namespace {

// Locations-per-cell above which a cell needs two or more beams at the
// oversubscription ratios the paper sweeps (>= 15:1); such cells must
// respect the generator's latitude floor so the calibrated binding cells
// remain binding — a multi-beam cell further from the inclination latitude
// would otherwise dominate the sizing (see DESIGN.md).
constexpr std::uint32_t kHeavyCellThreshold = 650;

// Written so that NaN fails too. A scale whose location total rounds to zero
// is out of range as well: generation would hold one cell of at least one
// location against a total of zero, and the exact-total fix-up could never
// finish.
bool scale_in_range(double scale) {
  return scale > 0.0 && scale <= 1.0 &&
         std::llround(static_cast<double>(paper::kTotalLocations) * scale) >
             0;
}

// Index of the nearest not-yet-taken region cell to `target`: the first
// strict minimum of geo::distance_km over the region in index order. A
// sharded first-strict-min reduction: every shard keeps its first minimum
// and the in-order merge keeps the earliest, matching the serial scan.
//
// The scan skips cells by latitude, which cannot change that result. Let t
// be the distance to the target's own cell when the region holds it and it
// is free; the minimum is then at most t. For any cell, the haversine term
// h = sin^2(dlat/2) + cos(lat1) cos(lat2) sin^2(dlon/2) >= sin^2(dlat/2),
// and the computed h keeps that order (the added term is non-negative and
// rounding is monotone), as do sqrt and asin, so the computed distance is
// at least R * |dlat| less a few ulps. A cell with R * |dlat| * (1 - 1e-9)
// > t is thus strictly farther than the minimum: it can neither be the
// minimum nor tie with it. Without a free own cell, t is infinite and every
// cell is scanned.
std::size_t nearest_free_cell(const hex::HexGrid& grid,
                              const hex::PolyfillCells& region,
                              const std::vector<bool>& taken,
                              const geo::GeoPoint& target, int resolution,
                              runtime::Executor& executor) {
  const auto& centers = region.centers;
  double threshold = std::numeric_limits<double>::infinity();
  // Polyfill emits cells in (q, r) order.
  const auto qr_less = [](hex::CellId a, hex::CellId b) {
    const hex::HexCoord ca = a.coord();
    const hex::HexCoord cb = b.coord();
    return ca.q != cb.q ? ca.q < cb.q : ca.r < cb.r;
  };
  const hex::CellId own = grid.cell_of(target, resolution);
  const auto it = std::lower_bound(region.cells.begin(), region.cells.end(),
                                   own, qr_less);
  if (it != region.cells.end() && *it == own) {
    const auto i = static_cast<std::size_t>(it - region.cells.begin());
    if (!taken[i]) threshold = geo::distance_km(centers[i], target);
  }
  const double target_lat = geo::deg2rad(target.lat_deg);

  struct Best {
    double d = 1e30;
    std::size_t i = 0;
    bool found = false;
  };
  const Best best = runtime::map_reduce<Best>(
      executor, 0, centers.size(),
      [&centers, &taken, &target, threshold, target_lat](
          Best& shard, std::size_t lo, std::size_t hi, std::size_t) {
        for (std::size_t i = lo; i < hi; ++i) {
          if (taken[i]) continue;
          const double dlat =
              std::abs(geo::deg2rad(centers[i].lat_deg) - target_lat);
          if (geo::kEarthRadiusKm * dlat * (1.0 - 1e-9) > threshold) continue;
          const double d = geo::distance_km(centers[i], target);
          if (!shard.found || d < shard.d) {
            shard.d = d;
            shard.i = i;
            shard.found = true;
          }
        }
      },
      [](Best& into, Best&& from) {
        if (from.found && (!into.found || from.d < into.d)) into = from;
      },
      /*grain=*/512);
  return best.found ? best.i : centers.size();
}

}  // namespace

std::vector<std::uint32_t> stratified_counts(
    const stats::PiecewiseQuantile& quantile, std::size_t n,
    std::uint64_t total, std::uint32_t max_count,
    runtime::Executor& executor) {
  // Within this range the fix-up below ends: a surplus always finds a count
  // under the cap, and a deficit a count above 1.
  if (n == 0 || total < n ||
      total / n + (total % n != 0 ? 1 : 0) > max_count) {
    throw std::invalid_argument(
        "stratified_counts: total outside [n, n * max_count]");
  }
  std::vector<std::uint32_t> counts(n);
  runtime::parallel_for_each(
      executor, 0, n,
      // leolint:allow(parallel-capture): each index writes only its own counts slot
      [&quantile, &counts, n](std::size_t i) {
        const double p =
            (static_cast<double>(i) + 0.5) / static_cast<double>(n);
        counts[i] = static_cast<std::uint32_t>(
            std::max<long long>(1, std::llround(quantile(p))));
      },
      /*grain=*/512);

  // Fix up rounding so the total matches exactly, +-1 per cell round-robin.
  long long diff = static_cast<long long>(total);
  for (std::uint32_t c : counts) diff -= c;
  std::size_t cursor = n / 2;
  while (diff != 0) {
    auto& c = counts[cursor];
    if (diff > 0 && c < max_count) {
      ++c;
      --diff;
    } else if (diff < 0 && c > 1) {
      --c;
      ++diff;
    }
    cursor = (cursor + 1) % n;
  }
  return counts;
}

std::vector<std::size_t> shuffled_indices(std::size_t n, std::uint64_t seed,
                                          std::uint64_t stream) {
  std::vector<std::size_t> idx(n);
  std::iota(idx.begin(), idx.end(), std::size_t{0});
  stats::Pcg32 rng(seed, stream);
  for (std::size_t i = n; i > 1; --i) {
    const std::size_t j = rng.next_below(static_cast<std::uint32_t>(i));
    std::swap(idx[i - 1], idx[j]);
  }
  return idx;
}

CountyTable assign_counties(std::vector<CellDemand>& cells,
                            const hex::HexGrid& grid, int county_resolution,
                            std::uint64_t seed,
                            const stats::PiecewiseQuantile& income_quantile,
                            char fips_lead,
                            std::optional<double> smallest_county_income_usd,
                            runtime::Executor& executor) {
  // A cell's parent is the county-resolution cell containing its centre,
  // which is HexGrid::parent_of for a cell whose centre is center_of(cell).
  std::vector<hex::CellId> parents(cells.size());
  runtime::parallel_for_each(
      executor, 0, cells.size(),
      // leolint:allow(parallel-capture): each index writes only its own parents slot
      [county_resolution, &grid, &cells, &parents](std::size_t i) {
        parents[i] = grid.cell_of(cells[i].center, county_resolution);
      },
      /*grain=*/512);

  struct CountyDraft {
    hex::CellId parent;
    std::uint64_t weight = 0;
    std::uint64_t shuffle_key = 0;
    std::size_t group = 0;  // first-seen order of `parent` over the cells
  };
  std::vector<CountyDraft> drafts;
  std::vector<std::size_t> group_of_cell(cells.size());
  std::unordered_map<hex::CellId, std::size_t> group_of_parent;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const auto [it, fresh] =
        group_of_parent.try_emplace(parents[i], drafts.size());
    if (fresh) {
      drafts.push_back(CountyDraft{.parent = parents[i], .group = it->second});
    }
    drafts[it->second].weight += cells[i].underserved;
    group_of_cell[i] = it->second;
  }
  // Sorted parent order for determinism: the shuffle-key sort below then
  // starts from the same sequence whatever order the cells came in.
  std::sort(drafts.begin(), drafts.end(),
            [](const CountyDraft& a, const CountyDraft& b) {
              return a.parent < b.parent;
            });
  for (CountyDraft& d : drafts) {
    d.shuffle_key = stats::mix_seed(seed, d.parent.bits());
  }
  std::sort(drafts.begin(), drafts.end(),
            [](const CountyDraft& a, const CountyDraft& b) {
              return a.shuffle_key < b.shuffle_key;
            });
  const double total_weight = static_cast<double>(std::accumulate(
      drafts.begin(), drafts.end(), std::uint64_t{0},
      [](std::uint64_t acc, const CountyDraft& d) { return acc + d.weight; }));

  std::size_t smallest = 0;
  for (std::size_t i = 1; i < drafts.size(); ++i) {
    if (drafts[i].weight < drafts[smallest].weight) smallest = i;
  }

  // FIPS codes: the lead digit, then the county's position in four digits,
  // as real five-digit codes have, or in as many as more counties need.
  std::size_t fips_digits = 4;
  for (std::size_t m = 10000; m < drafts.size(); m *= 10) ++fips_digits;
  CountyTable counties;
  std::vector<std::uint32_t> county_of_group(drafts.size());
  double cum = 0.0;
  for (std::size_t i = 0; i < drafts.size(); ++i) {
    const double mid =
        (cum + static_cast<double>(drafts[i].weight) / 2.0) / total_weight;
    cum += static_cast<double>(drafts[i].weight);
    County county;
    const std::string position = std::to_string(i);
    county.fips = fips_lead +
                  std::string(fips_digits - position.size(), '0') + position;
    county.centroid = grid.center_of(drafts[i].parent);
    county.median_income_usd = i == smallest && smallest_county_income_usd
                                   ? *smallest_county_income_usd
                                   : std::round(income_quantile(mid));
    county.underserved_locations = drafts[i].weight;
    county_of_group[drafts[i].group] = counties.add(std::move(county));
  }
  for (std::size_t i = 0; i < cells.size(); ++i) {
    cells[i].county_index = county_of_group[group_of_cell[i]];
  }
  return counties;
}

SyntheticGenerator::SyntheticGenerator(GeneratorConfig config)
    : config_(config) {
  if (!scale_in_range(config_.scale)) {
    throw std::invalid_argument(
        "GeneratorConfig: scale must be in (0, 1] and give at least one "
        "location");
  }
  if (config_.county_resolution >= config_.resolution) {
    throw std::invalid_argument(
        "GeneratorConfig: county_resolution must be coarser than resolution");
  }
}

std::array<geo::GeoPoint, 5> SyntheticGenerator::planted_targets(
    int resolution) {
  const double area = hex::cell_area_km2(resolution);
  // The two binding latitudes are derived from the paper's Table-2
  // constants; the remaining peaks sit safely north of both.
  const double lat_full = paper::binding_latitude_for_k(
      paper::kKFullService, area);
  const double lat_cap = paper::binding_latitude_for_k(paper::kK20To1, area);
  return {geo::GeoPoint{lat_full, -92.3},   // 5998: Ozarks, MO
          geo::GeoPoint{lat_cap, -89.7},    // 4580: TN/MO bootheel
          geo::GeoPoint{38.9, -83.1},       // 4200: Appalachian OH
          geo::GeoPoint{37.8, -81.2},       // 3900: West Virginia
          geo::GeoPoint{40.6, -78.4}};      // 3750: central PA
}

DemandProfile SyntheticGenerator::generate_profile(
    runtime::Executor& executor) const {
  const obs::Span obs_span("demand.generate_profile");
  const hex::HexGrid grid;
  // The region's cells and their centres; nothing below projects again.
  const hex::PolyfillCells region =
      hex::polyfill(grid, geo::conus_outline(), config_.resolution, executor);
  const std::size_t region_size = region.cells.size();
  if (region_size == 0) {
    throw std::runtime_error("SyntheticGenerator: empty region polyfill");
  }

  const auto target_total = static_cast<std::uint64_t>(
      std::llround(static_cast<double>(paper::kTotalLocations) *
                   config_.scale));

  // Decide whether the planted peaks fit at this scale.
  const bool plant = config_.plant_peak_cells &&
                     target_total > 2 * paper::kPeakCellLocationSum;
  const std::uint64_t planted_sum = plant ? paper::kPeakCellLocationSum : 0;
  const std::uint64_t target_other = target_total - planted_sum;

  // Stratified counts from the calibrated quantile function.
  const auto quantile = paper::cell_count_quantile();
  const double mean = quantile.mean();
  auto n_other = static_cast<std::size_t>(
      std::llround(static_cast<double>(target_other) / mean));
  n_other = std::max<std::size_t>(n_other, 1);
  const std::size_t n_planted = plant ? paper::kPlantedPeakCells.size() : 0;
  if (n_other + n_planted > region_size) {
    throw std::runtime_error(
        "SyntheticGenerator: region too small for requested scale");
  }

  // Generated cells stay at or below the calibration's upper anchor.
  const std::vector<std::uint32_t> counts = stratified_counts(
      quantile, n_other, target_other, /*max_count=*/3400, executor);

  // Geographic assignment. Planted peaks snap to their calibrated targets;
  // the rest fill a seeded shuffle of the region, with heavy cells
  // constrained to the latitude floor.
  const auto& centers = region.centers;
  std::vector<bool> taken(region_size, false);
  std::vector<CellDemand> cells;
  cells.reserve(n_other + n_planted);
  const auto assign = [&](std::size_t pick, std::uint32_t count) {
    taken[pick] = true;
    cells.push_back(CellDemand{region.cells[pick], centers[pick], count, 0});
  };

  if (plant) {
    const auto targets = planted_targets(config_.resolution);
    for (std::size_t k = 0; k < targets.size(); ++k) {
      // Nearest unassigned region cell to the target point.
      const std::size_t best = nearest_free_cell(
          grid, region, taken, targets[k], config_.resolution, executor);
      if (best == region_size) {
        throw std::runtime_error("SyntheticGenerator: ran out of cells");
      }
      assign(best, paper::kPlantedPeakCells[k]);
    }
  }

  const auto order = shuffled_indices(region_size, config_.seed, /*stream=*/1);
  // Assign heavy generated counts first so latitude-constrained slots are
  // available; then the remainder in shuffle order. Both scans are
  // monotone cursors: `taken` only ever flips false -> true and a cell's
  // latitude never changes, so every shuffle position a cursor has passed
  // stays unusable for that kind of cell.
  std::vector<std::size_t> count_order(n_other);
  std::iota(count_order.begin(), count_order.end(), std::size_t{0});
  std::sort(count_order.begin(), count_order.end(),
            [&](std::size_t a, std::size_t b) { return counts[a] > counts[b]; });
  std::size_t scan = 0;
  std::size_t heavy_scan = 0;
  for (std::size_t ci : count_order) {
    std::size_t pick = region_size;
    if (counts[ci] > kHeavyCellThreshold) {
      while (heavy_scan < order.size() &&
             (taken[order[heavy_scan]] ||
              centers[order[heavy_scan]].lat_deg <
                  config_.heavy_cell_min_lat_deg)) {
        ++heavy_scan;
      }
      if (heavy_scan < order.size()) pick = order[heavy_scan];
    } else {
      while (scan < order.size() && taken[order[scan]]) ++scan;
      if (scan < order.size()) pick = order[scan];
    }
    if (pick == region_size) {
      throw std::runtime_error("SyntheticGenerator: ran out of cells");
    }
    assign(pick, counts[ci]);
  }

  // The smallest county carries the distribution's minimum income exactly:
  // Fig 4's curve endpoints (proportions 0.050 / 0.046) come from the
  // poorest county's $28,800 median, and making it the *smallest* county
  // keeps the mass below $30k under the 0.01% anchor.
  CountyTable counties = assign_counties(
      cells, grid, config_.county_resolution, config_.seed,
      paper::income_quantile(), '9', paper::kMinCountyIncomeUsd, executor);

  if (obs::metrics_enabled()) {
    static obs::Counter& generated =
        obs::registry().counter("demand.cells_generated");
    generated.add(cells.size());
  }
  return DemandProfile(std::move(cells), std::move(counties));
}

DemandProfile SyntheticGenerator::generate_profile() const {
  return generate_profile(runtime::global_executor());
}

bool parse_cli_arg(int argc, char** argv, int& i, GeneratorConfig& config) {
  if (const auto seed = io::flag_value(argc, argv, i, "--seed")) {
    config.seed = io::parse_flag<std::uint64_t>("--seed", *seed);
    return true;
  }
  const auto scale = io::flag_value(argc, argv, i, "--scale");
  if (!scale) return false;
  config.scale = parse_scale("--scale", *scale);
  return true;
}

double parse_scale(std::string_view name, std::string_view text) {
  const double scale = io::parse_flag<double>(name, text);
  if (!scale_in_range(scale)) {
    throw std::runtime_error("invalid " + std::string(name) + " value '" +
                             std::string(text) +
                             "': must be in (0, 1] and give at least one "
                             "location");
  }
  return scale;
}

}  // namespace leodivide::demand
