#include "leodivide/market/simulation.hpp"

#include <cmath>
#include <optional>
#include <stdexcept>
#include <utility>

#include "leodivide/core/beamspread.hpp"
#include "leodivide/core/economics.hpp"
#include "leodivide/core/longtail.hpp"
#include "leodivide/core/served_fraction.hpp"
#include "leodivide/obs/trace.hpp"
#include "leodivide/runtime/executor.hpp"
#include "leodivide/runtime/parallel_for.hpp"

namespace leodivide::market {

void validate(const MarketConfig& config) {
  if (config.operators.empty()) {
    throw std::invalid_argument("MarketConfig: no operators");
  }
  for (std::size_t i = 0; i < config.operators.size(); ++i) {
    validate(config.operators[i]);
    for (std::size_t j = i + 1; j < config.operators.size(); ++j) {
      if (config.operators[i].name == config.operators[j].name) {
        throw std::invalid_argument("MarketConfig: duplicate operator name \"" +
                                    config.operators[i].name + "\"");
      }
    }
  }
  validate(config.split);
  if (!std::isfinite(config.beamspread) || config.beamspread < 1.0) {
    throw std::invalid_argument("MarketConfig: beamspread must be >= 1");
  }
  if (!std::isfinite(config.oversub_cap) || config.oversub_cap <= 0.0) {
    throw std::invalid_argument("MarketConfig: oversub_cap must be > 0");
  }
}

namespace {

/// Per-(operator, priority-zone) capacity. Absent when the split leaves the
/// operator no spectrum in that zone.
using ZoneModels = std::vector<std::optional<core::CellCapacity>>;

ZoneModels zone_models(const OperatorConfig& op, const SpectrumSplit& split,
                       std::size_t index, double beamspread,
                       double oversub_cap) {
  ZoneModels zones(split.operator_count());
  for (std::size_t p = 0; p < split.operator_count(); ++p) {
    const double share = split.share(index, p);
    if (share <= 0.0) continue;
    zones[p] =
        core::cell_capacity(op.sizing_model(share), beamspread, oversub_cap);
  }
  return zones;
}

// Each cell's priority zone (SpectrumSplit::priority_operator of its
// latitude), resolved once per run for every operator and the fairness
// pass. Empty under the zone-independent policies, where every cell is in
// zone 0.
std::vector<std::uint32_t> priority_zones(const demand::DemandProfile& profile,
                                          const SpectrumSplit& split,
                                          runtime::Executor& executor) {
  if (split.config().policy != SplitPolicy::kFairShare) return {};
  const auto& cells = profile.cells();
  std::vector<std::uint32_t> zone_of(cells.size());
  runtime::parallel_for(
      executor, 0, cells.size(),
      // leolint:allow(parallel-capture): each chunk writes only its own cells' zones
      [&zone_of, &cells, &split](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
          zone_of[i] = static_cast<std::uint32_t>(
              split.priority_operator(cells[i].center.lat_deg));
        }
      },
      /*grain=*/4096);
  return zone_of;
}

OperatorOutcome run_operator(const demand::DemandProfile& profile,
                             const afford::AffordabilityAnalyzer& analyzer,
                             const SpectrumSplit& split,
                             const MarketConfig& config,
                             const core::CapacityZones& capacity,
                             std::size_t index) {
  const OperatorConfig& op = config.operators[index];
  OperatorOutcome out;
  out.name = op.name;
  out.economic_share = split.economic_share(index);
  out.full = core::size_full_service(profile, op.sizing_model(),
                                     config.beamspread);
  // A cell's capacity is its priority zone's; a cell in a zone where the
  // operator has no spectrum can neither bind nor be served.
  out.capped =
      core::size_with_cap(profile, capacity, runtime::serial_executor());
  core::ServedCounts served;
  const auto& cells = profile.cells();
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const core::CellCapacity* zone = capacity.of(i);
    served.consider(cells[i], zone ? zone->served_limit : 0);
  }
  out.served_cell_fraction = static_cast<double>(served.cells) /
                             static_cast<double>(profile.cell_count());
  const std::uint64_t total = profile.total_locations();
  out.served_location_fraction =
      total == 0 ? 1.0
                 : static_cast<double>(served.locations) /
                       static_cast<double>(total);
  // The long tail's last point is its cheapest multi-beam deployment, the
  // one that leaves the most locations unserved.
  const core::LongTailPoint cheapest =
      core::longtail_cheapest(profile, op.sizing_model(out.economic_share),
                              config.beamspread, config.oversub_cap);
  out.cost_per_location_year_usd =
      core::cost_per_location_year_usd(op.costs, cheapest, total);
  out.affordability = analyzer.evaluate(op.plan);
  return out;
}

FairnessReport compute_fairness(
    const demand::DemandProfile& profile,
    const std::vector<core::CapacityZones>& capacity,
    const std::vector<std::uint32_t>& full_limits) {
  const std::size_t n = capacity.size();
  std::vector<core::ServedCounts> served(n);
  FairnessReport report;
  report.operators.resize(n);
  const auto& cells = profile.cells();
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const auto& cell = cells[i];
    std::size_t win = n;  // n: no operator serves the cell
    std::uint32_t win_limit = 0;
    for (std::size_t o = 0; o < n; ++o) {
      const core::CellCapacity* zone = capacity[o].of(i);
      const std::uint32_t limit = zone ? zone->served_limit : 0;
      if (!served[o].consider(cell, limit)) continue;
      // Winner: most capacity headroom; earliest index on exact ties.
      if (win == n || limit > win_limit) {
        win = o;
        win_limit = limit;
      }
    }
    if (win < n) {
      ++report.operators[win].cells_won;
      continue;
    }
    ++report.unserved_cells;
    report.unserved_locations += cell.underserved;
    bool full_spectrum_could = false;
    for (std::size_t o = 0; o < n; ++o) {
      if (cell.underserved <= full_limits[o]) {
        full_spectrum_could = true;
        break;
      }
    }
    if (full_spectrum_could) {
      ++report.split_limited_cells;
    } else {
      ++report.capacity_limited_cells;
    }
  }
  std::vector<double> served_locations;
  served_locations.reserve(n);
  for (std::size_t o = 0; o < n; ++o) {
    report.operators[o].cells_served = served[o].cells;
    report.operators[o].locations_served = served[o].locations;
    served_locations.push_back(static_cast<double>(served[o].locations));
  }
  report.jain_served_locations = jain_index(served_locations);
  return report;
}

}  // namespace

MarketSimulation::MarketSimulation(MarketConfig config)
    : config_(std::move(config)) {
  validate(config_);
}

MarketReport MarketSimulation::run(const demand::DemandProfile& profile,
                                   runtime::Executor& executor) const {
  if (profile.cell_count() == 0) {
    throw std::invalid_argument("MarketSimulation: empty profile");
  }
  const obs::Span span("market.run");
  const std::size_t n = config_.operators.size();
  const SpectrumSplit split(config_.operators, config_.split);
  const afford::AffordabilityAnalyzer analyzer(profile);
  const std::vector<std::uint32_t> zone_of =
      priority_zones(profile, split, executor);
  std::vector<ZoneModels> zones;
  std::vector<core::CapacityZones> capacity;
  std::vector<std::uint32_t> full_limits;
  zones.reserve(n);
  capacity.reserve(n);
  full_limits.reserve(n);
  for (std::size_t o = 0; o < n; ++o) {
    zones.push_back(zone_models(config_.operators[o], split, o,
                                config_.beamspread, config_.oversub_cap));
    full_limits.push_back(core::max_locations_spread(
        config_.operators[o].sizing_model().capacity, config_.beamspread,
        config_.oversub_cap));
  }
  for (const ZoneModels& models : zones) capacity.push_back({models, zone_of});
  MarketReport report;
  report.policy = config_.split.policy;
  report.beamspread = config_.beamspread;
  report.oversub_cap = config_.oversub_cap;
  report.operators.resize(n);
  // Operators are independent of each other *and* of the fairness report —
  // fairness depends only on the per-zone capacities and limits, never on
  // operator outcomes — so all n + 1 units run as one executor batch: on a
  // pool the fairness pass overlaps the operator pipelines instead of
  // barriering behind them. Each unit runs its inner loops serially and
  // writes only its own slot, so the report lands in config order
  // byte-identically at every thread count (golden-tested).
  executor.run_tasks(
      n + 1,
      // leolint:allow(parallel-capture): each unit writes only its own report slot
      [&report, &profile, &analyzer, &split, &capacity, &full_limits, this,
       n](std::size_t i) {
        if (i == n) {
          const obs::Span unit_span("market.fairness");
          report.fairness = compute_fairness(profile, capacity, full_limits);
          return;
        }
        const obs::Span unit_span("market.operator");
        report.operators[i] =
            run_operator(profile, analyzer, split, config_, capacity[i], i);
      });
  return report;
}

MarketReport MarketSimulation::run(const demand::DemandProfile& profile) const {
  return run(profile, runtime::global_executor());
}

}  // namespace leodivide::market
