#include "leodivide/demand/delta.hpp"

#include <limits>
#include <stdexcept>

namespace leodivide::demand {

namespace {

[[noreturn]] void fail(const std::string& what) {
  throw std::invalid_argument("delta: " + what);
}

}  // namespace

std::string_view to_string(DeltaKind kind) noexcept {
  switch (kind) {
    case DeltaKind::kAddLocations:
      return "add_locations";
    case DeltaKind::kRemoveLocations:
      return "remove_locations";
    case DeltaKind::kUpgradeLocations:
      return "upgrade_locations";
    case DeltaKind::kSetPlanPrice:
      return "set_plan_price";
    case DeltaKind::kSetCountyIncome:
      return "set_county_income";
  }
  return "unknown";
}

DeltaApplier::DeltaApplier(DemandProfile& profile, const hex::HexGrid& grid,
                           int resolution)
    : profile_(&profile), grid_(&grid), resolution_(resolution) {
  const auto& cells = profile.cells();
  index_.reserve(cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (!index_.emplace(cells[i].cell.bits(), i).second) {
      fail("profile has duplicate cells");
    }
  }
}

DeltaEffect DeltaApplier::apply(const DeltaOp& op) {
  DeltaEffect effect;
  switch (op.kind) {
    case DeltaKind::kAddLocations: {
      if (op.count == 0) fail("add with zero count");
      if (!op.position.valid()) fail("add at invalid position");
      const hex::CellId id = grid_->cell_of(op.position, resolution_);
      const auto it = index_.find(id.bits());
      if (it != index_.end()) {
        // Existing cell: bump it (and its own county — op.county_index is
        // ignored, the cell keeps the county it was aggregated into).
        CellDemand& cell = profile_->cell_at(it->second);
        if (cell.underserved >
            std::numeric_limits<std::uint32_t>::max() - op.count) {
          fail("add overflows cell count");
        }
        cell.underserved += op.count;
        profile_->counties().at(cell.county_index).underserved_locations +=
            op.count;
        effect.cell_index = it->second;
      } else {
        if (op.county_index >= profile_->counties().size()) {
          fail("add with county index out of range");
        }
        // New cell: canonical center (same as the generator's aggregation),
        // appended so existing indices stay valid.
        const std::size_t idx = profile_->add_cell(
            CellDemand{id, grid_->center_of(id), op.count, op.county_index});
        index_.emplace(id.bits(), idx);
        profile_->counties().at(op.county_index).underserved_locations +=
            op.count;
        effect.cell_index = idx;
        effect.cell_added = true;
      }
      effect.cells_changed = true;
      effect.counties_changed = true;
      return effect;
    }
    case DeltaKind::kRemoveLocations:
    case DeltaKind::kUpgradeLocations: {
      const char* verb =
          op.kind == DeltaKind::kRemoveLocations ? "remove" : "upgrade";
      if (op.count == 0) fail(std::string(verb) + " with zero count");
      if (!op.position.valid()) {
        fail(std::string(verb) + " at invalid position");
      }
      const hex::CellId id = grid_->cell_of(op.position, resolution_);
      const auto it = index_.find(id.bits());
      if (it == index_.end()) {
        fail(std::string(verb) + " from a cell with no locations");
      }
      CellDemand& cell = profile_->cell_at(it->second);
      if (op.count > cell.underserved) {
        fail(std::string(verb) + " of more locations than the cell has");
      }
      // Cells may drain to zero but are kept: indices stay stable, and an
      // empty cell contributes nothing to any downstream aggregate.
      cell.underserved -= op.count;
      profile_->counties().at(cell.county_index).underserved_locations -=
          op.count;
      effect.cell_index = it->second;
      effect.cells_changed = true;
      effect.counties_changed = true;
      return effect;
    }
    case DeltaKind::kSetCountyIncome: {
      if (op.county_index >= profile_->counties().size()) {
        fail("income for county index out of range");
      }
      if (!valid_median_income(op.value)) {
        fail("income must be finite and above zero");
      }
      profile_->counties().at(op.county_index).median_income_usd = op.value;
      effect.counties_changed = true;
      return effect;
    }
    case DeltaKind::kSetPlanPrice:
      fail("plan-price ops apply to a plan table, not a demand profile");
  }
  fail("unknown delta kind");
}

}  // namespace leodivide::demand
