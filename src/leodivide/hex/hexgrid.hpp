#pragma once
// The hex grid: a hierarchical, H3-style hexagonal tiling of a region of the
// Earth. Starlink's terrestrial planning cells are H3 cells (Neinavaie et
// al.; Puchol), and the paper aggregates broadband-serviceable locations into
// these cells. We reproduce the same API surface over a planar-projected
// tiling: a region of interest is projected with an azimuthal equidistant
// projection (distance-true from the region center), tiled with pointy-top
// hexagons, and indexed with (resolution, axial coordinate) CellIds.
//
// Resolutions follow an aperture-4 ladder (each step halves the edge length,
// quarters the area), calibrated so that resolution 5 matches H3 resolution
// 5's mean cell area of 252.9 km^2 — the resolution prior work identifies as
// Starlink's service-cell size.

#include <array>

#include "leodivide/geo/geopoint.hpp"
#include "leodivide/geo/projection.hpp"
#include "leodivide/hex/cellid.hpp"

namespace leodivide::hex {

/// Mean H3 resolution-5 hexagon area [km^2]; our grid calibrates to this.
inline constexpr double kH3Res5AreaKm2 = 252.9033645;

/// The Starlink service-cell resolution.
inline constexpr int kServiceCellResolution = 5;

/// Hexagon edge length [km] at a resolution of this grid's ladder.
[[nodiscard]] double edge_length_km(int resolution);

/// Hexagon area [km^2] at a resolution (uniform across the projected plane).
[[nodiscard]] double cell_area_km2(int resolution);

/// A hex tiling of the plane around a projection center. Typical use indexes
/// the US with the grid centered on CONUS.
class HexGrid {
 public:
  /// Creates a grid whose projection is centered at `center`. Defaults to
  /// the CONUS centroid so US analyses share a canonical grid.
  explicit HexGrid(const geo::GeoPoint& center = {39.5, -98.35});

  /// Cell containing a geographic point at the given resolution.
  [[nodiscard]] CellId cell_of(const geo::GeoPoint& p, int resolution) const;

  /// Center of a cell.
  [[nodiscard]] geo::GeoPoint center_of(CellId id) const;

  /// The six boundary vertices of a cell, counter-clockwise.
  [[nodiscard]] std::array<geo::GeoPoint, 6> boundary_of(CellId id) const;

  /// Parent cell at `parent_res` (< id.resolution()): the coarser cell
  /// containing this cell's center.
  [[nodiscard]] CellId parent_of(CellId id, int parent_res) const;

  [[nodiscard]] const geo::GeoPoint& center() const noexcept {
    return projection_.center();
  }
  [[nodiscard]] const geo::AzimuthalEquidistant& projection() const noexcept {
    return projection_;
  }

 private:
  [[nodiscard]] geo::PlanePoint hex_to_plane(int resolution,
                                             HexCoord h) const noexcept;
  [[nodiscard]] FractionalHex plane_to_hex(int resolution,
                                           geo::PlanePoint p) const noexcept;

  geo::AzimuthalEquidistant projection_;
};

}  // namespace leodivide::hex
