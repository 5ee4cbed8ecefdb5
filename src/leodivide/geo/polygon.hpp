#pragma once
// Simple polygons in lat/lon space with point-in-polygon and area. Used to
// clip synthetic locations and hex polyfills to the US outline.

#include <span>
#include <vector>

#include "leodivide/geo/bbox.hpp"
#include "leodivide/geo/geopoint.hpp"

namespace leodivide::geo {

/// A simple (non-self-intersecting) polygon with implicit closure between the
/// last and first vertex. Vertices are treated in planar lat/lon space, which
/// is adequate for region outlines far from the poles and the antimeridian.
class Polygon {
 public:
  /// Throws std::invalid_argument for fewer than 3 vertices.
  explicit Polygon(std::vector<GeoPoint> vertices);

  [[nodiscard]] std::span<const GeoPoint> vertices() const {
    return vertices_;
  }

  /// Even-odd rule point-in-polygon (boundary points count as inside on the
  /// lower/left edges, per the standard crossing convention). Tests only the
  /// edges that span the query's latitude slab (see the constructor).
  [[nodiscard]] bool contains(const GeoPoint& p) const noexcept;

  [[nodiscard]] const BoundingBox& bbox() const noexcept { return bbox_; }

  /// True when some edge, horizontal ones included, has a point in the
  /// closed box. A box that meets no edge lies wholly inside or wholly
  /// outside the polygon. Vertices must be finite.
  [[nodiscard]] bool boundary_meets(const BoundingBox& box) const noexcept;

  /// Planar signed area in deg^2 (positive if counter-clockwise).
  [[nodiscard]] double signed_area_deg2() const noexcept;

  /// Approximate surface area [km^2] using a cos(latitude)-corrected planar
  /// formula evaluated at the polygon's centroid latitude.
  [[nodiscard]] double area_km2() const noexcept;

 private:
  /// A non-horizontal edge in the crossing test's roles: a = vertices_[i],
  /// b = vertices_[j] with j the vertex before i.
  struct Edge {
    GeoPoint a;
    GeoPoint b;
  };

  std::vector<GeoPoint> vertices_;
  BoundingBox bbox_;
  /// Distinct finite vertex latitudes, ascending. Slab k is the half-open
  /// band [slab_lat_[k], slab_lat_[k + 1]).
  std::vector<double> slab_lat_;
  /// The edges that cross each slab.
  std::vector<std::vector<Edge>> slab_edges_;
};

}  // namespace leodivide::geo
