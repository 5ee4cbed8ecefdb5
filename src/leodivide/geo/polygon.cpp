#include "leodivide/geo/polygon.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "leodivide/geo/angle.hpp"

namespace leodivide::geo {

Polygon::Polygon(std::vector<GeoPoint> vertices)
    : vertices_(std::move(vertices)), bbox_(BoundingBox::empty()) {
  if (vertices_.size() < 3) {
    throw std::invalid_argument("Polygon: need >= 3 vertices");
  }
  for (const auto& v : vertices_) bbox_.extend(v);

  // Latitude slabs. Edge (a, b) crosses the horizontal line through p
  // exactly when lo <= p.lat < hi, lo/hi being its lower/upper endpoint
  // latitude. Both bounds are vertex latitudes, so for p in slab k that
  // holds iff lo <= slab_lat_[k] and slab_lat_[k + 1] <= hi: each edge is
  // listed in the slabs from its lower to its upper endpoint. Horizontal
  // edges never cross, nor do edges with a non-finite endpoint latitude
  // (their crossing abscissa is NaN), so neither is listed.
  for (const auto& v : vertices_) {
    if (std::isfinite(v.lat_deg)) slab_lat_.push_back(v.lat_deg);
  }
  std::sort(slab_lat_.begin(), slab_lat_.end());
  slab_lat_.erase(std::unique(slab_lat_.begin(), slab_lat_.end()),
                  slab_lat_.end());
  const auto slab_of = [this](double lat) {
    return static_cast<std::size_t>(
        std::lower_bound(slab_lat_.begin(), slab_lat_.end(), lat) -
        slab_lat_.begin());
  };
  slab_edges_.resize(slab_lat_.size());
  const std::size_t n = vertices_.size();
  for (std::size_t i = 0, j = n - 1; i < n; j = i++) {
    const auto& a = vertices_[i];
    const auto& b = vertices_[j];
    if (!std::isfinite(a.lat_deg) || !std::isfinite(b.lat_deg) ||
        a.lat_deg == b.lat_deg) {
      continue;
    }
    const std::size_t hi = slab_of(std::max(a.lat_deg, b.lat_deg));
    for (std::size_t k = slab_of(std::min(a.lat_deg, b.lat_deg)); k < hi;
         ++k) {
      slab_edges_[k].push_back(Edge{a, b});
    }
  }
}

bool Polygon::contains(const GeoPoint& p) const noexcept {
  if (!bbox_.contains(p)) return false;
  // No slab holds a latitude below the lowest or at/above the highest
  // vertex latitude, nor NaN; no edge crosses there either.
  const auto above =
      std::upper_bound(slab_lat_.begin(), slab_lat_.end(), p.lat_deg);
  if (above == slab_lat_.begin() || above == slab_lat_.end()) return false;
  const auto k = static_cast<std::size_t>(above - slab_lat_.begin()) - 1;
  bool inside = false;
  for (const auto& [a, b] : slab_edges_[k]) {
    const double x_at = (b.lon_deg - a.lon_deg) * (p.lat_deg - a.lat_deg) /
                            (b.lat_deg - a.lat_deg) +
                        a.lon_deg;
    if (p.lon_deg < x_at) inside = !inside;
  }
  return inside;
}

bool Polygon::boundary_meets(const BoundingBox& box) const noexcept {
  const std::size_t n = vertices_.size();
  for (std::size_t i = 0, j = n - 1; i < n; j = i++) {
    const GeoPoint& a = vertices_[i];
    const GeoPoint& b = vertices_[j];
    // Clip the edge to the box's latitude band, then compare the clipped
    // piece's longitude span with the box's.
    const double lat_lo = std::max(std::min(a.lat_deg, b.lat_deg), box.lat_min);
    const double lat_hi = std::min(std::max(a.lat_deg, b.lat_deg), box.lat_max);
    if (lat_lo > lat_hi) continue;
    double lon_lo = std::min(a.lon_deg, b.lon_deg);
    double lon_hi = std::max(a.lon_deg, b.lon_deg);
    if (a.lat_deg != b.lat_deg) {
      const auto lon_at = [&a, &b](double lat) {
        return (b.lon_deg - a.lon_deg) * (lat - a.lat_deg) /
                   (b.lat_deg - a.lat_deg) +
               a.lon_deg;
      };
      lon_lo = lon_at(lat_lo);
      lon_hi = lon_at(lat_hi);
      if (lon_lo > lon_hi) std::swap(lon_lo, lon_hi);
    }
    if (lon_lo <= box.lon_max && lon_hi >= box.lon_min) return true;
  }
  return false;
}

double Polygon::signed_area_deg2() const noexcept {
  double acc = 0.0;
  const std::size_t n = vertices_.size();
  for (std::size_t i = 0, j = n - 1; i < n; j = i++) {
    acc += (vertices_[j].lon_deg + vertices_[i].lon_deg) *
           (vertices_[i].lat_deg - vertices_[j].lat_deg);
  }
  return acc / 2.0;
}

double Polygon::area_km2() const noexcept {
  const double lat_mid = deg2rad((bbox_.lat_min + bbox_.lat_max) / 2.0);
  const double km_per_deg = kTwoPi * kEarthRadiusKm / 360.0;
  return std::abs(signed_area_deg2()) * km_per_deg * km_per_deg *
         std::cos(lat_mid);
}

}  // namespace leodivide::geo
