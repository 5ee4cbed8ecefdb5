#include "leodivide/core/longtail.hpp"

#include <algorithm>
#include <queue>
#include <stdexcept>

namespace leodivide::core {

namespace {

// Largest location count servable with `beams` beams at `oversub`:1.
std::uint32_t locations_for_beams(const SatelliteCapacityModel& model,
                                  std::uint32_t beams, double oversub) {
  return location_floor(static_cast<double>(beams) *
                        model.beam_capacity_gbps() * oversub /
                        demand::location_demand_gbps());
}

struct HeapEntry {
  double satellites;
  std::size_t cell;
  std::uint32_t beams;  // beams assumed when this entry was pushed
  friend bool operator<(const HeapEntry& a, const HeapEntry& b) {
    return a.satellites < b.satellites;  // max-heap on satellites
  }
};

}  // namespace

std::vector<LongTailPoint> longtail_curve(const demand::DemandProfile& profile,
                                          const SizingModel& model,
                                          double beamspread,
                                          double oversub_cap) {
  if (profile.cell_count() == 0) {
    throw std::invalid_argument("longtail_curve: empty profile");
  }
  const auto& cap = model.capacity;
  const std::uint32_t cap_locs = cap.max_locations_at(oversub_cap);
  const std::size_t n = profile.cell_count();

  // Per-cell K(phi) is loop-invariant; precompute it once.
  std::vector<double> units(n);
  for (std::size_t i = 0; i < n; ++i) {
    units[i] = coverage_units(model, profile.cells()[i].center.lat_deg);
  }
  auto sats_for = [&](std::size_t i, std::uint32_t beams) {
    return units[i] /
           cap.plan().cells_served_per_satellite(beamspread, beams);
  };

  // Initial state: every cell truncated at the cap; the residue can never
  // be served within the cap.
  std::vector<std::uint32_t> served(n);
  std::uint64_t unserved = 0;
  std::priority_queue<HeapEntry> heap;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t s = std::min(profile.cells()[i].underserved, cap_locs);
    served[i] = s;
    unserved += profile.cells()[i].underserved - s;
    const std::uint32_t beams = cap.beams_needed(s, oversub_cap);
    if (beams >= 2) heap.push({sats_for(i, beams), i, beams});
  }

  std::vector<LongTailPoint> curve;
  while (!heap.empty()) {
    const HeapEntry top = heap.top();
    heap.pop();
    // Lazy deletion: skip entries that no longer reflect the cell's state.
    const std::uint32_t beams = cap.beams_needed(served[top.cell], oversub_cap);
    if (beams != top.beams || beams < 2) continue;

    LongTailPoint point;
    point.locations_unserved = unserved;
    point.satellites = top.satellites;
    point.beams_on_binding = beams;
    point.binding_lat_deg = profile.cells()[top.cell].center.lat_deg;
    // leolint:allow(float-eq): dedup of exactly-assigned curve points
    if (curve.empty() || point.satellites != curve.back().satellites) {
      curve.push_back(point);
    }
    // Shed locations from the binding cell until it frees one beam.
    const std::uint32_t target =
        locations_for_beams(cap, beams - 1, oversub_cap);
    unserved += served[top.cell] - target;
    served[top.cell] = target;
    if (beams - 1 >= 2) {
      heap.push({sats_for(top.cell, beams - 1), top.cell, beams - 1});
    }
  }

  // The curve ends when no cell needs more than one beam: beyond that the
  // paper's demand-density model no longer constrains the constellation
  // (baseline coverage, which the model deliberately excludes, would take
  // over). If the profile never had a multi-beam cell, emit the peak cell's
  // single-beam requirement so callers always get one point.
  if (curve.empty()) {
    const std::size_t peak = profile.peak_cell().index;
    LongTailPoint point;
    point.locations_unserved = unserved;
    point.beams_on_binding = 1;
    point.binding_lat_deg = profile.cells()[peak].center.lat_deg;
    point.satellites = sats_for(peak, 1);
    curve.push_back(point);
  }

  // The curve was built by shedding (unserved increases); callers expect
  // ascending x.
  std::sort(curve.begin(), curve.end(),
            [](const LongTailPoint& a, const LongTailPoint& b) {
              return a.locations_unserved < b.locations_unserved;
            });
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
