#pragma once
// Constellation sizing (Section 3.0.2, Table 2, Finding F2). The paper's
// lower-bound model:
//
//   * The satellite over the binding (bandwidth-neediest) cell dedicates
//     b beams to it; each of its remaining (B - b) user beams is spread
//     across `beamspread` cells, so that satellite covers
//     1 + (B - b) * beamspread cells.
//   * The constellation must therefore supply one satellite per that many
//     cells *at the binding cell's location*. Walker geometry converts the
//     local density requirement into a total constellation size via the
//     latitude density model (orbit/density.hpp):
//         N = K(phi) / (1 + (B - b) * s),
//     K(phi) = 2 pi^2 R^2 sqrt(sin^2 i - sin^2 phi) / A_cell.
//
// Per P2, sizing is driven by peak *demand* density: the binding cell is
// the demand cell whose requirement maximises N, not baseline coverage.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>

#include "leodivide/core/capacity_model.hpp"
#include "leodivide/hex/hexgrid.hpp"

namespace leodivide::runtime {
class Executor;
}

namespace leodivide::core {

/// Sizing parameters beyond the capacity model.
struct SizingModel {
  SatelliteCapacityModel capacity;
  double inclination_deg = 53.0;  ///< Starlink shell-1
  double cell_area_km2 = hex::cell_area_km2(hex::kServiceCellResolution);
};

/// K(phi): satellites-per-covered-cell scale factor at a latitude — the
/// total constellation size that yields exactly one satellite per cell of
/// area cell_area_km2 at that latitude.
[[nodiscard]] double coverage_units(const SizingModel& model, double lat_deg);

/// N = K(phi) / (1 + (B - beams_on_binding) * beamspread).
[[nodiscard]] double satellites_for_binding_cell(const SizingModel& model,
                                                 double lat_deg,
                                                 double beamspread,
                                                 std::uint32_t beams_on_binding);

/// Calibrated variant: N = k / (1 + (B - beams_on_binding) * beamspread)
/// with k supplied directly (e.g. the paper's reverse-engineered constants).
[[nodiscard]] double satellites_from_k(const SizingModel& model, double k,
                                       double beamspread,
                                       std::uint32_t beams_on_binding);

/// Result of sizing against a demand profile.
struct SizingResult {
  double satellites = 0.0;
  double binding_lat_deg = 0.0;
  std::uint32_t beams_on_binding = 0;
  std::size_t binding_cell_index = 0;  ///< index into profile.cells()

  // Exact comparison on purpose: sizing is deterministic, and callers
  // (serve/ paranoid mode, golden tests) check bit-for-bit agreement.
  friend bool operator==(const SizingResult&, const SizingResult&) = default;
};

/// The binding order: strictly more satellites bind first, and a bit-equal
/// tie goes to the smaller binding_cell_index. It is total over distinct
/// cells. BindingCandidate::merge and the long-tail sweep both order by it.
[[nodiscard]] bool binds_before(const SizingResult& a,
                                const SizingResult& b) noexcept;

/// The sizing result when `cell` (at index `i` of its profile) binds on
/// `beams` beams.
[[nodiscard]] SizingResult binding_at(const SizingModel& model, std::size_t i,
                                      const demand::CellDemand& cell,
                                      double beamspread, std::uint32_t beams);

/// The capacity one cell is sized and served under: a sizing model at a
/// (beamspread, oversubscription cap) operating point and the two per-cell
/// location limits it implies. Uniform for the single-operator pipeline;
/// one per spectrum zone in market/.
struct CellCapacity {
  SizingModel model;
  double beamspread = 0.0;
  double oversub_cap = 0.0;
  std::uint32_t cap_locs = 0;      ///< sizing truncation: max_locations_at
  std::uint32_t served_limit = 0;  ///< Figure-2 limit: max_locations_spread
};

/// Builds the record. Throws std::invalid_argument unless `beamspread` is
/// finite and >= 1 and `oversub_cap` is finite and > 0.
[[nodiscard]] CellCapacity cell_capacity(const SizingModel& model,
                                         double beamspread,
                                         double oversub_cap);

/// The capacity each cell is sized and served under, as a zone table: cell
/// i falls in zone zone_of[i], or in zone 0 when zone_of is empty (a
/// uniform capacity). A zone without a capacity has no usable spectrum, so
/// its cells can neither bind nor be served. market/ resolves each cell's
/// spectrum zone once per run and shares the table across its operators.
struct CapacityZones {
  std::span<const std::optional<CellCapacity>> zones;
  std::span<const std::uint32_t> zone_of;

  /// Cell i's capacity, or nullptr where its zone has no spectrum.
  [[nodiscard]] const CellCapacity* of(std::size_t i) const noexcept {
    const std::optional<CellCapacity>& zone =
        zones[zone_of.empty() ? 0 : zone_of[i]];
    return zone ? &*zone : nullptr;
  }
};

/// The binding cell of a capped deployment (§3.0.2): the demand-driven
/// (>= 2 beams) cell maximising N. core::size_with_cap, market/ and the
/// per-region partials of serve/ all fold cells through this one candidate.
struct BindingCandidate {
  bool found = false;
  SizingResult best;

  /// Folds cell `i`: its service is truncated at capacity.cap_locs, it
  /// needs beams_needed(served, oversub_cap) beams, and a cell needing
  /// fewer than 2 cannot bind.
  void consider(std::size_t i, const demand::CellDemand& cell,
                const CellCapacity& capacity);

  /// Keeps whichever candidate binds_before the other. That order is
  /// total, so candidates over any partition of the cells merge, in any
  /// order, to the candidate of the serial scan.
  void merge(const BindingCandidate& other) noexcept;
};

/// Full-service deployment (F1 option A): every location served, unbounded
/// oversubscription. Per the paper's generous lower-bound assumption, the
/// peak-demand cell takes the full beams_per_full_cell and no other cell
/// needs more than one beam, so the peak cell is the binding cell.
[[nodiscard]] SizingResult size_full_service(
    const demand::DemandProfile& profile, const SizingModel& model,
    double beamspread);

/// Capped deployment (F1 option B) with a per-cell capacity: the binding
/// candidate over every cell, run as a sharded map_reduce over `executor`
/// (identical for every thread count). When no cell needs more than one
/// beam, the peak cell among those with a capacity binds with one beam.
/// Throws std::invalid_argument on an empty profile, a non-empty zone_of
/// whose size is not the profile's cell count, or when no cell has a
/// capacity ("no usable spectrum").
[[nodiscard]] SizingResult size_with_cap(const demand::DemandProfile& profile,
                                         const CapacityZones& capacity,
                                         runtime::Executor& executor);

/// Capped deployment at one uniform capacity: per-cell service is
/// truncated at `oversub_cap`:1 of the full cell capacity, each cell needs
/// beams_needed(served, cap) beams, and the peak cell is the fallback.
[[nodiscard]] SizingResult size_with_cap(const demand::DemandProfile& profile,
                                         const SizingModel& model,
                                         double beamspread,
                                         double oversub_cap,
                                         runtime::Executor& executor);

/// As above, on the process-global executor (LEODIVIDE_THREADS).
[[nodiscard]] SizingResult size_with_cap(const demand::DemandProfile& profile,
                                         const SizingModel& model,
                                         double beamspread,
                                         double oversub_cap);

}  // namespace leodivide::core
