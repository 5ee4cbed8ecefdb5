#pragma once
// The analysis's working set: DemandProfile, per-service-cell
// un(der)served location counts plus a county table. Every capacity result
// (Figs 1-3, Table 2) is a function of the per-cell count distribution, and
// every affordability result (Fig 4) is a function of the location-weighted
// county income distribution. Real data (the FCC National Broadband Map's
// counts per Starlink service cell) enters as the cells/counties CSV pair
// that DemandProfile::load_csv reads.

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "leodivide/demand/county.hpp"
#include "leodivide/demand/location.hpp"
#include "leodivide/geo/geopoint.hpp"
#include "leodivide/hex/cellid.hpp"

namespace leodivide::runtime {
class Executor;
}  // namespace leodivide::runtime

namespace leodivide::demand {

/// Aggregate demand of one service cell.
struct CellDemand {
  hex::CellId cell;
  geo::GeoPoint center;
  std::uint32_t underserved = 0;   ///< un(der)served locations in the cell
  std::uint32_t county_index = 0;  ///< dominant county of the cell

  /// Downlink demand [Gbps] at the federal 100 Mbps per location.
  [[nodiscard]] double demand_gbps() const noexcept;

  /// Exact (bit-level) equality; snapshot round-trip tests rely on it.
  friend bool operator==(const CellDemand&, const CellDemand&) = default;
};

/// The peak cell (P2): the largest count, ties broken toward the smaller
/// cell id. consider() folds one cell and merge() another candidate; since
/// cell ids are unique the order is total, so partial candidates over any
/// partition of the cells merge, in any order, to the same winner.
struct PeakCandidate {
  bool found = false;
  std::uint32_t count = 0;      ///< the peak cell's un(der)served locations
  std::uint64_t cell_bits = 0;  ///< its cell id (the tie-break key)
  std::size_t index = 0;        ///< its index into DemandProfile::cells()

  void consider(std::size_t i, const CellDemand& cell) noexcept {
    merge({true, cell.underserved, cell.cell.bits(), i});
  }
  void merge(const PeakCandidate& other) noexcept {
    if (other.found &&
        (!found || other.count > count ||
         (other.count == count && other.cell_bits < cell_bits))) {
      *this = other;
    }
  }
};

/// Cell-level demand profile: the paper's working dataset.
class DemandProfile {
 public:
  DemandProfile() = default;
  DemandProfile(std::vector<CellDemand> cells, CountyTable counties);

  [[nodiscard]] const std::vector<CellDemand>& cells() const noexcept {
    return cells_;
  }
  [[nodiscard]] const CountyTable& counties() const noexcept {
    return counties_;
  }
  [[nodiscard]] CountyTable& counties() noexcept { return counties_; }

  [[nodiscard]] std::size_t cell_count() const noexcept {
    return cells_.size();
  }

  /// Mutable cell record, bounds-checked — the delta-application surface
  /// (see delta.hpp). Callers own the invariant that county aggregates stay
  /// consistent with per-cell edits; DeltaApplier maintains it for them.
  [[nodiscard]] CellDemand& cell_at(std::size_t index);

  /// Appends a cell (cells are append-only: existing indices never move,
  /// so per-cell state keyed by index survives). Validates the cell's
  /// county index against the county table; returns the new cell's index.
  std::size_t add_cell(CellDemand cell);

  /// Total un(der)served locations.
  [[nodiscard]] std::uint64_t total_locations() const noexcept;

  /// Per-cell counts as doubles, for the stats machinery.
  [[nodiscard]] std::vector<double> counts_as_doubles() const;

  /// The largest per-cell count (the "peak cell" of P2).
  [[nodiscard]] std::uint32_t peak_cell_count() const noexcept;

  /// The peak cell itself (not found on an empty profile).
  [[nodiscard]] PeakCandidate peak_cell() const noexcept;

  /// Writes/reads the profile as two CSV streams (cells, counties). The
  /// cell rows are formatted and parsed on `executor` (the global one when
  /// omitted) with the same bytes and values at every thread count; a load
  /// raises the error of the first bad record in file order.
  void save_csv(std::ostream& cells_out, std::ostream& counties_out) const;
  void save_csv(std::ostream& cells_out, std::ostream& counties_out,
                runtime::Executor& executor) const;
  [[nodiscard]] static DemandProfile load_csv(std::istream& cells_in,
                                              std::istream& counties_in);
  [[nodiscard]] static DemandProfile load_csv(std::istream& cells_in,
                                              std::istream& counties_in,
                                              runtime::Executor& executor);

 private:
  std::vector<CellDemand> cells_;
  CountyTable counties_;
};

}  // namespace leodivide::demand
