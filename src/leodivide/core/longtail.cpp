#include "leodivide/core/longtail.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "leodivide/runtime/executor.hpp"

namespace leodivide::core {

namespace {

// Largest location count servable with `beams` beams at `oversub`:1.
std::uint32_t locations_for_beams(const SatelliteCapacityModel& model,
                                  std::uint32_t beams, double oversub) {
  return location_floor(static_cast<double>(beams) *
                        model.beam_capacity_gbps() * oversub /
                        demand::location_demand_gbps());
}

// One link of a cell's shed chain: the cell binds on `beams` beams at
// `satellites`, then sheds `shed` locations to free one beam.
struct ChainLink {
  double satellites = 0.0;
  std::size_t cell = 0;
  std::uint32_t beams = 0;
  std::uint32_t shed = 0;
};

// The sweep order: binds_before on (satellites, cell), then more beams
// first within one cell's chain (its links tie on the first two keys only
// if two round to the same N).
bool sheds_before(const ChainLink& a, const ChainLink& b) noexcept {
  if (std::bit_cast<std::uint64_t>(a.satellites) !=
      std::bit_cast<std::uint64_t>(b.satellites)) {
    return a.satellites > b.satellites;
  }
  return a.cell != b.cell ? a.cell < b.cell : a.beams > b.beams;
}

// Walks every cell's shed chain, handing each link to `visit` in cell
// order and, within a chain, from the most beams down; returns the
// cap-unservable residue. Every cell starts truncated at the cap (the
// residue can never be served within it). A chain depends on its cell
// alone: the cell binds on its beams b, sheds down to the most b - 1 beams
// serve, and continues while that leaves exactly b - 1 >= 2 beams (below
// one location per beam a shed can free several; the cell then leaves the
// sweep). K(phi) is the cell's for every link.
template <typename Visit>
std::uint64_t walk_shed_chains(const demand::DemandProfile& profile,
                               const SizingModel& model, double beamspread,
                               double oversub_cap, Visit&& visit) {
  const CellCapacity capacity = cell_capacity(model, beamspread, oversub_cap);
  const SatelliteCapacityModel& cap = model.capacity;
  const auto& cells = profile.cells();
  std::uint64_t residue = 0;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    std::uint32_t served = std::min(cells[i].underserved, capacity.cap_locs);
    residue += cells[i].underserved - served;
    std::uint32_t beams = cap.beams_needed(served, oversub_cap);
    if (beams < 2) continue;  // demand-driven binding needs >= 2 beams
    const double k = coverage_units(model, cells[i].center.lat_deg);
    for (;;) {
      const std::uint32_t kept =
          locations_for_beams(cap, beams - 1, oversub_cap);
      visit(ChainLink{satellites_from_k(model, k, beamspread, beams), i,
                      beams, served - kept});
      served = kept;
      const std::uint32_t next = cap.beams_needed(
          std::min(served, capacity.cap_locs), oversub_cap);
      if (next != beams - 1 || next < 2) break;
      beams = next;
    }
  }
  return residue;
}

// The point a curve with no multi-beam link consists of: size_with_cap's
// single-beam fallback (the peak cell), at the residue.
LongTailPoint single_beam_point(const demand::DemandProfile& profile,
                                const SizingModel& model, double beamspread,
                                double oversub_cap, std::uint64_t residue) {
  const SizingResult peak = size_with_cap(profile, model, beamspread,
                                          oversub_cap,
                                          runtime::serial_executor());
  return {residue, peak.satellites, peak.beams_on_binding,
          peak.binding_lat_deg};
}

void require_cells(const demand::DemandProfile& profile, const char* what) {
  if (profile.cell_count() == 0) {
    throw std::invalid_argument(std::string(what) + ": empty profile");
  }
}

}  // namespace

std::vector<LongTailPoint> longtail_curve(const demand::DemandProfile& profile,
                                          const SizingModel& model,
                                          double beamspread,
                                          double oversub_cap) {
  require_cells(profile, "longtail_curve");
  // A chain from b beams has at most b - 1 links; counting them first sizes
  // the links once instead of growing them through every doubling.
  const CellCapacity capacity = cell_capacity(model, beamspread, oversub_cap);
  std::size_t most_links = 0;
  for (const demand::CellDemand& cell : profile.cells()) {
    const std::uint32_t beams = model.capacity.beams_needed(
        std::min(cell.underserved, capacity.cap_locs), oversub_cap);
    if (beams >= 2) most_links += beams - 1;
  }
  std::vector<ChainLink> links;
  links.reserve(most_links);
  std::uint64_t unserved =
      walk_shed_chains(profile, model, beamspread, oversub_cap,
                       [&links](const ChainLink& link) { links.push_back(link); });

  // Shedding always takes whichever link binds first, and a chain's next
  // link never binds before the one that shed into it, so the sweep's
  // order is one sort of every link. Points come out with strictly rising
  // locations_unserved: every shed drops a location.
  std::sort(links.begin(), links.end(), sheds_before);
  const auto& cells = profile.cells();
  std::vector<LongTailPoint> curve;
  for (const ChainLink& link : links) {
    // leolint:allow(float-eq): dedup of exactly-assigned curve points
    if (curve.empty() || link.satellites != curve.back().satellites) {
      curve.push_back({unserved, link.satellites, link.beams,
                       cells[link.cell].center.lat_deg});
    }
    unserved += link.shed;
  }

  // The curve ends when no cell needs more than one beam: beyond that the
  // paper's demand-density model no longer constrains the constellation
  // (baseline coverage, which the model deliberately excludes, would take
  // over). If no cell could ever bind, the one point is size_with_cap's
  // single-beam fallback.
  if (curve.empty()) {
    curve.push_back(
        single_beam_point(profile, model, beamspread, oversub_cap, unserved));
  }
  return curve;
}

LongTailPoint longtail_cheapest(const demand::DemandProfile& profile,
                                const SizingModel& model, double beamspread,
                                double oversub_cap) {
  require_cells(profile, "longtail_cheapest");
  // The curve's last point is the first link, in sheds_before order, of
  // the smallest satellite count: among ties the first cell, then the most
  // beams, which is the first such link the walk meets. Its x is the
  // residue plus the sheds of every link that binds above it, i.e. of all
  // links but those tied at the minimum.
  bool any = false;
  ChainLink cheapest;
  std::uint64_t shed_total = 0;
  std::uint64_t shed_at_min = 0;
  const std::uint64_t residue = walk_shed_chains(
      profile, model, beamspread, oversub_cap, [&](const ChainLink& link) {
        shed_total += link.shed;
        if (!any || link.satellites < cheapest.satellites) {
          any = true;
          cheapest = link;
          shed_at_min = link.shed;
        } else if (std::bit_cast<std::uint64_t>(link.satellites) ==
                   std::bit_cast<std::uint64_t>(cheapest.satellites)) {
          shed_at_min += link.shed;
        }
      });
  if (!any) {
    return single_beam_point(profile, model, beamspread, oversub_cap, residue);
  }
  return {residue + (shed_total - shed_at_min), cheapest.satellites,
          cheapest.beams, profile.cells()[cheapest.cell].center.lat_deg};
}

double satellites_for_unserved_budget(const std::vector<LongTailPoint>& curve,
                                      std::uint64_t unserved_budget) {
  if (curve.empty()) {
    throw std::invalid_argument("satellites_for_unserved_budget: empty curve");
  }
  if (unserved_budget < curve.front().locations_unserved) {
    throw std::invalid_argument(
        "satellites_for_unserved_budget: budget below the unservable residue");
  }
  // Curve is ascending in x and (weakly) descending in satellites: pick the
  // last point with x <= budget.
  double best = curve.front().satellites;
  for (const auto& p : curve) {
    if (p.locations_unserved <= unserved_budget) best = p.satellites;
  }
  return best;
}

}  // namespace leodivide::core
