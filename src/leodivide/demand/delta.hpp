#pragma once
// Demand deltas: the unit of change the analysis service applies between
// queries. The paper's what-if questions — what if a subsidy upgrades the
// locations of one tract, what if a plan price drops, what if new
// un(der)served locations appear — are all small edits to the demand
// profile (and its county table) that leave almost every cell untouched.
// A DeltaOp records one such edit; DeltaApplier applies ops to a
// DemandProfile in O(1) per op while keeping the county aggregates
// consistent, so the serving layer (serve/) can recompute only what an op
// actually dirtied.

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "leodivide/demand/dataset.hpp"
#include "leodivide/hex/hexgrid.hpp"

namespace leodivide::demand {

/// What one delta does.
enum class DeltaKind : std::uint8_t {
  kAddLocations = 1,      ///< new un(der)served locations at a position
  kRemoveLocations = 2,   ///< locations leave the un(der)served set
  kUpgradeLocations = 3,  ///< locations upgraded to reliable service
  kSetPlanPrice = 4,      ///< retail plan price change (plan table, not cells)
  kSetCountyIncome = 5,   ///< county median-income revision
};

/// Human-readable kind name ("add_locations", ...).
[[nodiscard]] std::string_view to_string(DeltaKind kind) noexcept;

/// One edit to the working scenario. Field use by kind:
///
///   kAddLocations      position, count, county_index (county of a cell
///                      that does not exist yet; ignored for existing cells,
///                      which keep their county)
///   kRemoveLocations   position, count
///   kUpgradeLocations  position, count (same cell arithmetic as remove;
///                      tracked separately because it models a subsidy, not
///                      attrition)
///   kSetPlanPrice      plan_name, value [USD/month]
///   kSetCountyIncome   county_index, value [USD/year]
struct DeltaOp {
  DeltaKind kind = DeltaKind::kAddLocations;
  geo::GeoPoint position;
  std::uint32_t count = 0;
  std::uint32_t county_index = 0;
  std::string plan_name;
  double value = 0.0;

  /// Exact (bit-level) equality; journal round-trip tests rely on it.
  friend bool operator==(const DeltaOp&, const DeltaOp&) = default;
};

/// What applying one op changed, for dirty tracking.
struct DeltaEffect {
  std::size_t cell_index = 0;     ///< touched cell (when cells_changed)
  bool cell_added = false;        ///< a new cell was appended to the profile
  bool cells_changed = false;     ///< some cell record mutated
  bool counties_changed = false;  ///< the county table mutated
};

/// Applies DeltaOps to one DemandProfile. Holds a cell-id index so each op
/// is O(1); new cells are *appended* (existing cell indices never move), so
/// downstream per-cell state keyed by index stays valid across ops.
///
/// The profile and grid are borrowed and must outlive the applier; the
/// profile must not be mutated by anyone else while the applier is live.
class DeltaApplier {
 public:
  DeltaApplier(DemandProfile& profile, const hex::HexGrid& grid,
               int resolution);

  /// Applies one op in place. Throws std::invalid_argument on any invalid
  /// op (zero count, unknown cell for remove/upgrade, removing more
  /// locations than a cell has, bad county index, an income that is not
  /// finite and above zero, plan-price op — plan prices live in a plan
  /// table, not the profile).
  /// The profile is unchanged when apply throws.
  DeltaEffect apply(const DeltaOp& op);

  [[nodiscard]] const DemandProfile& profile() const noexcept {
    return *profile_;
  }
  [[nodiscard]] int resolution() const noexcept { return resolution_; }

 private:
  DemandProfile* profile_;
  const hex::HexGrid* grid_;
  int resolution_;
  // Cell id bits -> index into profile().cells(). Lookups only; nothing
  // ever iterates it, so the map's order can't leak into results.
  std::unordered_map<std::uint64_t, std::size_t> index_;
};

}  // namespace leodivide::demand
