#include "leodivide/core/longtail.hpp"

#include <algorithm>
#include <queue>
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

// Heap order: the entry that binds first is on top.
struct BindsAfter {
  bool operator()(const SizingResult& a, const SizingResult& b) const noexcept {
    return binds_before(b, a);
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
  const CellCapacity capacity = cell_capacity(model, beamspread, oversub_cap);
  const auto& cells = profile.cells();

  // Initial state: every cell truncated at the cap; the residue can never
  // be served within the cap. Each cell that can bind enters the heap as
  // its binding candidate, so the top is size_with_cap's binding cell.
  std::vector<std::uint32_t> served(cells.size());
  std::uint64_t unserved = 0;
  std::priority_queue<SizingResult, std::vector<SizingResult>, BindsAfter>
      heap;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    served[i] = std::min(cells[i].underserved, capacity.cap_locs);
    unserved += cells[i].underserved - served[i];
    BindingCandidate candidate;
    candidate.consider(i, cells[i], capacity);
    if (candidate.found) heap.push(candidate.best);
  }

  // Each pop lowers one cell's beam count, and points come out with
  // strictly rising locations_unserved: every shed drops a location.
  std::vector<LongTailPoint> curve;
  while (!heap.empty()) {
    const SizingResult top = heap.top();
    heap.pop();
    // leolint:allow(float-eq): dedup of exactly-assigned curve points
    if (curve.empty() || top.satellites != curve.back().satellites) {
      curve.push_back({unserved, top.satellites, top.beams_on_binding,
                       top.binding_lat_deg});
    }
    // Shed locations from the binding cell until it frees one beam. Below
    // one location per beam a shed can free several; such a cell leaves
    // the sweep.
    const std::size_t i = top.binding_cell_index;
    demand::CellDemand shed = cells[i];
    shed.underserved = locations_for_beams(
        model.capacity, top.beams_on_binding - 1, oversub_cap);
    unserved += served[i] - shed.underserved;
    served[i] = shed.underserved;
    BindingCandidate next;
    next.consider(i, shed, capacity);
    if (next.found && next.best.beams_on_binding == top.beams_on_binding - 1) {
      heap.push(next.best);
    }
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
