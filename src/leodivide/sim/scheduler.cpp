#include "leodivide/sim/scheduler.hpp"

#include <algorithm>
#include <cmath>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <string>

#include "leodivide/geo/angle.hpp"
#include "leodivide/obs/metrics.hpp"
#include "leodivide/obs/trace.hpp"
#include "leodivide/orbit/footprint.hpp"
#include "leodivide/sim/beam.hpp"

namespace leodivide::sim {

double coverage_radius_km(const std::vector<orbit::SatState>& sats) {
  return sats.empty() ? geo::kEarthRadiusKm + 550.0
                      : sats.front().ecef_km.norm();
}

CoverageGeometry coverage_geometry(double radius_km,
                                   double min_elevation_deg) {
  CoverageGeometry g;
  g.radius_km = radius_km;
  g.min_elevation_deg = min_elevation_deg;
  // Same operation order as the pre-index inline derivation, so cos_psi
  // (and every schedule and stored trace) stays bit-identical.
  g.psi_rad = orbit::coverage_central_angle_rad(
      radius_km - geo::kEarthRadiusKm, min_elevation_deg);
  g.cos_psi = std::cos(g.psi_rad);
  return g;
}

// Every cell's visibility-index window, kept across epochs. Spans are
// stored in processing order: cell order_[k].cell scans
// spans[offsets[k], offsets[k + 1]).
//
// Reuse rule: the table serves an epoch whose index has the same layout
// (band_sectors) and a psi no larger than the table's psi_deg. The table is
// built at the first epoch's psi plus kWindowSlackDeg, so the ulp jitter of
// the per-epoch psi (coverage_radius_km takes a few bit patterns over a
// run) never forces a rebuild. Why reuse is exact: the band range, the
// longitude half-width asin and the sector range (up to the switch to a
// whole band) each grow monotonically with the window half-angle, so the
// table's buckets contain every bucket the epoch's own query would scan.
// The extra candidates fail the exact cos(psi) filter or lose the explicit
// index tie-break exactly as they would in a full scan, so the selected
// satellite — and the schedule — is unchanged.
struct BeamScheduler::WindowTable {
  std::vector<std::uint32_t> band_sectors;  ///< layout the spans index
  double psi_deg = 0.0;                     ///< largest psi served
  std::vector<orbit::BucketSpan> spans;
  std::vector<std::uint32_t> offsets;  ///< order_.size() + 1 entries
};

// The published table. Tables are immutable once published; a rebuild
// swaps the pointer, and an epoch still holding the old one keeps it alive.
struct BeamScheduler::WindowCache {
  std::mutex mutex;
  std::shared_ptr<const WindowTable> table;
};

BeamScheduler::BeamScheduler(std::vector<SchedCell> cells,
                             SchedulerConfig config)
    : cells_(std::move(cells)),
      config_(config),
      windows_(std::make_shared<WindowCache>()) {
  if (config_.beams_per_satellite == 0 || config_.beamspread == 0) {
    throw std::invalid_argument("BeamScheduler: zero beams or beamspread");
  }
  for (std::size_t ci = 0; ci < cells_.size(); ++ci) {
    const geo::GeoPoint& c = cells_[ci].center;
    if (!std::isfinite(c.lat_deg) || !std::isfinite(c.lon_deg) ||
        std::abs(c.lat_deg) > 90.0) {
      throw std::invalid_argument(
          "BeamScheduler: cell " + std::to_string(ci) +
          " centre is not a finite point with |lat| <= 90");
    }
  }
  // A hostile mask fails here, through the derivation every epoch uses,
  // rather than mid-run.
  (void)coverage_geometry(coverage_radius_km({}), config_.min_elevation_deg);
  // The naive-scan test oracle (tests/oracles) re-derives this order with
  // the same comparator; the equivalence suites fail if the two diverge.
  std::vector<std::uint32_t> order(cells_.size());
  std::iota(order.begin(), order.end(), 0U);
  std::sort(order.begin(), order.end(),
            [this](std::uint32_t a, std::uint32_t b) {
              if (cells_[a].beams_needed != cells_[b].beams_needed) {
                return cells_[a].beams_needed > cells_[b].beams_needed;
              }
              return cells_[a].locations > cells_[b].locations;
            });
  order_.reserve(cells_.size());
  for (const std::uint32_t ci : order) {
    const SchedCell& cell = cells_[ci];
    order_.push_back(
        {cell.ecef_km.unit(), ci, cell.beams_needed, cell.locations});
  }
}

std::vector<SchedCell> BeamScheduler::cells_from_profile(
    const demand::DemandProfile& profile,
    const core::SatelliteCapacityModel& model, double oversub) {
  std::vector<SchedCell> out;
  out.reserve(profile.cell_count());
  for (const auto& cell : profile.cells()) {
    SchedCell sc;
    sc.center = cell.center;
    sc.ecef_km = geo::spherical_to_cartesian(cell.center, geo::kEarthRadiusKm);
    sc.locations = cell.underserved;
    sc.beams_needed = std::max(1U, model.beams_needed(cell.underserved,
                                                      oversub));
    out.push_back(sc);
  }
  return out;
}

std::shared_ptr<const BeamScheduler::WindowTable> BeamScheduler::window_table(
    const orbit::VisIndex& index) const {
  const std::lock_guard<std::mutex> lock(windows_->mutex);
  const std::shared_ptr<const WindowTable>& current = windows_->table;
  if (current && current->band_sectors == index.band_sectors() &&
      index.psi_deg() <= current->psi_deg) {
    return current;
  }
  auto table = std::make_shared<WindowTable>();
  table->band_sectors = index.band_sectors();
  table->psi_deg = index.psi_deg() + orbit::kWindowSlackDeg;
  // Bands are at least psi tall, so a window of 2 psi usually touches
  // three bands, one span each: reserving that avoids regrowing the
  // largest buffer the scheduler holds.
  table->spans.reserve(3 * order_.size());
  table->offsets.reserve(order_.size() + 1);
  table->offsets.push_back(0);
  for (const OrderedCell& cell : order_) {
    index.window(cells_[cell.cell].center, orbit::kWindowSlackDeg,
                 table->spans);
    table->offsets.push_back(static_cast<std::uint32_t>(table->spans.size()));
  }
  windows_->table = table;
  return table;
}

ScheduleResult BeamScheduler::schedule(
    const std::vector<orbit::SatState>& sats) const {
  ScheduleWorkspace workspace;
  ScheduleResult result;
  schedule(sats, workspace, result);
  return result;
}

void BeamScheduler::schedule(const std::vector<orbit::SatState>& sats,
                             ScheduleWorkspace& ws,
                             ScheduleResult& result) const {
  const obs::Span span("sim.schedule");
  result.assignments.clear();
  result.unassigned_cells.clear();
  result.locations_served = 0;
  result.locations_total = 0;
  result.mean_beam_utilization = 0.0;
  if (cells_.empty()) return;

  const double radius_km = coverage_radius_km(sats);
  if (!ws.geometry.matches(radius_km, config_.min_elevation_deg)) {
    ws.geometry = coverage_geometry(radius_km, config_.min_elevation_deg);
  }
  const double cos_psi = ws.geometry.cos_psi;

  if (sats.empty()) {
    for (const OrderedCell& cell : order_) {
      result.locations_total += cell.locations;
      result.unassigned_cells.push_back(cell.cell);
    }
    return;
  }

  ws.budgets.assign(
      sats.size(), BeamBudget(config_.beams_per_satellite, config_.beamspread));
  ws.sat_touched.assign(sats.size(), 0);
  ws.index.build(sats, ws.geometry.psi_rad);
  const std::shared_ptr<const WindowTable> windows = window_table(ws.index);
  ws.visible.resize(sats.size());  // scan() output, never regrown

  std::uint64_t candidates_scanned = 0;
  std::uint64_t retired = 0;
  for (std::size_t k = 0; k < order_.size(); ++k) {
    const OrderedCell& cell = order_[k];
    result.locations_total += cell.locations;
    // One pass over the live satellites of the cell's buckets keeps those
    // whose unit dot with the cell radial passes cos_psi — the naive
    // scan's exact test, so the visible set is unchanged.
    const std::uint32_t first_span = windows->offsets[k];
    const orbit::ScanCount scan =
        ws.index.scan(windows->spans.data() + first_span,
                      windows->offsets[k + 1] - first_span, cell.unit,
                      cos_psi, ws.visible.data());
    candidates_scanned += scan.live;

    // Selection is order-independent: the naive ascending scan with strict
    // improvement picks the lowest-indexed feasible satellite attaining
    // the best slack (max for kMostSlack, min for kBestFit, any for
    // kFirstFit), so scanning the unsorted visible set with an explicit
    // index tie-break chooses the identical satellite — byte-identical
    // schedules without sorting candidates per cell (pinned by the
    // equivalence suite).
    std::int64_t best_sat = -1;
    std::uint32_t best_slack = 0;
    for (std::size_t vi = 0; vi < scan.visible; ++vi) {
      const std::uint32_t si = ws.visible[vi];
      const std::uint32_t slack = ws.budgets[si].slack();
      if (slack == 0) continue;
      // Whole-beam cells need enough free whole beams.
      if (cell.beams_needed >= 2 &&
          ws.budgets[si].beams_free() < cell.beams_needed) {
        continue;
      }
      const auto sat = static_cast<std::int64_t>(si);
      bool take = best_sat < 0;
      switch (config_.strategy) {
        case Strategy::kMostSlack:
          take = take || slack > best_slack ||
                 (slack == best_slack && sat < best_sat);
          break;
        case Strategy::kBestFit:
          take = take || slack < best_slack ||
                 (slack == best_slack && sat < best_sat);
          break;
        case Strategy::kFirstFit:
          take = take || sat < best_sat;
          break;
      }
      if (take) {
        best_sat = sat;
        best_slack = slack;
      }
    }
    if (best_sat < 0) {
      result.unassigned_cells.push_back(cell.cell);
      continue;
    }
    auto& budget = ws.budgets[static_cast<std::size_t>(best_sat)];
    const bool ok = cell.beams_needed >= 2
                        ? budget.reserve_whole(cell.beams_needed)
                        : budget.reserve_shared_slot();
    if (!ok) {
      result.unassigned_cells.push_back(cell.cell);
      continue;
    }
    // Slack never grows within an epoch, so a full satellite can never be
    // selected again: drop it from the index instead of testing it for
    // every remaining cell.
    if (budget.slack() == 0) {
      ws.index.retire(static_cast<std::uint32_t>(best_sat));
      ++retired;
    }
    ws.sat_touched[static_cast<std::size_t>(best_sat)] = 1;
    result.assignments.push_back(
        Assignment{cell.cell, static_cast<std::uint32_t>(best_sat),
                   cell.beams_needed >= 2 ? cell.beams_needed : 0U});
    result.locations_served += cell.locations;
  }

  double util_sum = 0.0;
  std::size_t util_n = 0;
  for (std::size_t si = 0; si < sats.size(); ++si) {
    if (ws.sat_touched[si] == 0) continue;
    util_sum += static_cast<double>(ws.budgets[si].beams_used()) /
                static_cast<double>(config_.beams_per_satellite);
    ++util_n;
  }
  result.mean_beam_utilization = util_n == 0 ? 0.0 : util_sum /
                                                         static_cast<double>(
                                                             util_n);

  if (obs::metrics_enabled()) {
    static obs::Counter& candidates =
        obs::registry().counter("sim.sched.candidates");
    static obs::Counter& pruned = obs::registry().counter("sim.sched.pruned");
    static obs::Counter& retirements =
        obs::registry().counter("sim.sched.retired");
    const std::uint64_t pairs =
        static_cast<std::uint64_t>(cells_.size()) *
        static_cast<std::uint64_t>(sats.size());
    candidates.add(candidates_scanned);
    pruned.add(pairs - candidates_scanned);
    retirements.add(retired);
  }
}

}  // namespace leodivide::sim
