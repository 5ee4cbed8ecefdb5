#include "leodivide/core/longtail.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <stdexcept>

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

}  // namespace

std::vector<LongTailPoint> longtail_curve(const demand::DemandProfile& profile,
                                          const SizingModel& model,
                                          double beamspread,
                                          double oversub_cap) {
  if (profile.cell_count() == 0) {
    throw std::invalid_argument("longtail_curve: empty profile");
  }
  const CellCapacity capacity = cell_capacity(model, beamspread, oversub_cap);
  const SatelliteCapacityModel& cap = model.capacity;
  const auto& cells = profile.cells();

  // A chain from b beams has at most b - 1 links; counting them first sizes
  // the links once instead of growing them through every doubling.
  std::size_t most_links = 0;
  for (const demand::CellDemand& cell : cells) {
    const std::uint32_t beams = cap.beams_needed(
        std::min(cell.underserved, capacity.cap_locs), oversub_cap);
    if (beams >= 2) most_links += beams - 1;
  }

  // Initial state: every cell truncated at the cap; the residue can never
  // be served within the cap. A cell's shed chain depends on that cell
  // alone: it binds on its beams b, sheds down to the most b - 1 beams
  // serve, and continues while that leaves exactly b - 1 >= 2 beams (below
  // one location per beam a shed can free several; the cell then leaves
  // the sweep). K(phi) is the cell's for every link.
  std::uint64_t unserved = 0;
  std::vector<ChainLink> links;
  links.reserve(most_links);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    std::uint32_t served = std::min(cells[i].underserved, capacity.cap_locs);
    unserved += cells[i].underserved - served;
    std::uint32_t beams = cap.beams_needed(served, oversub_cap);
    if (beams < 2) continue;  // demand-driven binding needs >= 2 beams
    const double k = coverage_units(model, cells[i].center.lat_deg);
    for (;;) {
      const std::uint32_t kept =
          locations_for_beams(cap, beams - 1, oversub_cap);
      links.push_back({satellites_from_k(model, k, beamspread, beams), i,
                       beams, served - kept});
      served = kept;
      const std::uint32_t next = cap.beams_needed(
          std::min(served, capacity.cap_locs), oversub_cap);
      if (next != beams - 1 || next < 2) break;
      beams = next;
    }
  }

  // Shedding always takes whichever link binds first, and a chain's next
  // link never binds before the one that shed into it, so the sweep's
  // order is one sort of every link. Points come out with strictly rising
  // locations_unserved: every shed drops a location.
  std::sort(links.begin(), links.end(), sheds_before);
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
    const SizingResult peak = size_with_cap(profile, model, beamspread,
                                            oversub_cap,
                                            runtime::serial_executor());
    curve.push_back({unserved, peak.satellites, peak.beams_on_binding,
                     peak.binding_lat_deg});
  }
  return curve;
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
