#include "leodivide/core/sizing.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>

#include "leodivide/core/beamspread.hpp"
#include "leodivide/obs/metrics.hpp"
#include "leodivide/obs/trace.hpp"
#include "leodivide/orbit/density.hpp"
#include "leodivide/runtime/map_reduce.hpp"

namespace leodivide::core {

double coverage_units(const SizingModel& model, double lat_deg) {
  // One satellite per cell at lat_deg: required density = 1 / A_cell.
  return orbit::constellation_size_for_density(1.0 / model.cell_area_km2,
                                               lat_deg,
                                               model.inclination_deg);
}

double satellites_for_binding_cell(const SizingModel& model, double lat_deg,
                                   double beamspread,
                                   std::uint32_t beams_on_binding) {
  return satellites_from_k(model, coverage_units(model, lat_deg), beamspread,
                           beams_on_binding);
}

double satellites_from_k(const SizingModel& model, double k, double beamspread,
                         std::uint32_t beams_on_binding) {
  if (k <= 0.0) throw std::invalid_argument("satellites_from_k: k must be > 0");
  const double cells = model.capacity.plan().cells_served_per_satellite(
      beamspread, beams_on_binding);
  return k / cells;
}

bool binds_before(const SizingResult& a, const SizingResult& b) noexcept {
  return a.satellites > b.satellites ||
         (std::bit_cast<std::uint64_t>(a.satellites) ==
              std::bit_cast<std::uint64_t>(b.satellites) &&
          a.binding_cell_index < b.binding_cell_index);
}

SizingResult binding_at(const SizingModel& model, std::size_t i,
                        const demand::CellDemand& cell, double beamspread,
                        std::uint32_t beams) {
  return {satellites_for_binding_cell(model, cell.center.lat_deg, beamspread,
                                      beams),
          cell.center.lat_deg, beams, i};
}

CellCapacity cell_capacity(const SizingModel& model, double beamspread,
                           double oversub_cap) {
  return {model, beamspread, oversub_cap,
          model.capacity.max_locations_at(oversub_cap),
          max_locations_spread(model.capacity, beamspread, oversub_cap)};
}

void BindingCandidate::consider(std::size_t i, const demand::CellDemand& cell,
                                const CellCapacity& capacity) {
  const std::uint32_t served = std::min(cell.underserved, capacity.cap_locs);
  const std::uint32_t beams =
      capacity.model.capacity.beams_needed(served, capacity.oversub_cap);
  if (beams < 2) return;  // demand-driven binding needs >= 2 beams
  merge({true, binding_at(capacity.model, i, cell, capacity.beamspread,
                          beams)});
}

void BindingCandidate::merge(const BindingCandidate& other) noexcept {
  if (other.found && (!found || binds_before(other.best, best))) {
    *this = other;
  }
}

SizingResult size_full_service(const demand::DemandProfile& profile,
                               const SizingModel& model, double beamspread) {
  if (profile.cell_count() == 0) {
    throw std::invalid_argument("size_full_service: empty profile");
  }
  const std::size_t peak = profile.peak_cell().index;
  return binding_at(model, peak, profile.cells()[peak], beamspread,
                    model.capacity.plan().beams_per_full_cell());
}

SizingResult size_with_cap(const demand::DemandProfile& profile,
                           const CapacityZones& capacity,
                           runtime::Executor& executor) {
  if (profile.cell_count() == 0) {
    throw std::invalid_argument("size_with_cap: empty profile");
  }
  if (!capacity.zone_of.empty() &&
      capacity.zone_of.size() != profile.cell_count()) {
    throw std::invalid_argument(
        "size_with_cap: zone table does not match the profile");
  }
  const obs::Span span("core.size_with_cap");
  if (obs::metrics_enabled()) {
    static obs::Counter& cells =
        obs::registry().counter("core.size_with_cap.cells");
    cells.add(profile.cell_count());
  }
  const auto& cells = profile.cells();
  const BindingCandidate binding = runtime::map_reduce<BindingCandidate>(
      executor, 0, cells.size(),
      [&cells, &capacity](BindingCandidate& shard, std::size_t lo,
                          std::size_t hi, std::size_t) {
        for (std::size_t i = lo; i < hi; ++i) {
          if (const CellCapacity* zone = capacity.of(i)) {
            shard.consider(i, cells[i], *zone);
          }
        }
      },
      [](BindingCandidate& into, BindingCandidate&& from) { into.merge(from); },
      /*grain=*/1024);
  if (binding.found) return binding.best;
  // No cell needs more than one beam: the peak cell among those with usable
  // spectrum binds with a single beam.
  demand::PeakCandidate peak;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (capacity.of(i) != nullptr) peak.consider(i, cells[i]);
  }
  if (!peak.found) {
    throw std::invalid_argument(
        "size_with_cap: no usable spectrum over the profile");
  }
  const CellCapacity& zone = *capacity.of(peak.index);
  return binding_at(zone.model, peak.index, cells[peak.index],
                    zone.beamspread, 1);
}

SizingResult size_with_cap(const demand::DemandProfile& profile,
                           const SizingModel& model, double beamspread,
                           double oversub_cap, runtime::Executor& executor) {
  const std::optional<CellCapacity> uniform =
      cell_capacity(model, beamspread, oversub_cap);
  return size_with_cap(profile, CapacityZones{{&uniform, 1}, {}}, executor);
}

SizingResult size_with_cap(const demand::DemandProfile& profile,
                           const SizingModel& model, double beamspread,
                           double oversub_cap) {
  return size_with_cap(profile, model, beamspread, oversub_cap,
                       runtime::global_executor());
}

}  // namespace leodivide::core
