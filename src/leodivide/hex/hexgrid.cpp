#include "leodivide/hex/hexgrid.hpp"

#include <cmath>
#include <cstddef>
#include <stdexcept>

#include "leodivide/geo/angle.hpp"

namespace leodivide::hex {

namespace {

constexpr double kSqrt3 = 1.7320508075688772;

// Edge length at resolution 5 such that the hex area equals the H3
// resolution-5 mean area: area = (3*sqrt(3)/2) * a^2.
const double kEdgeRes5Km = std::sqrt(kH3Res5AreaKm2 * 2.0 / (3.0 * kSqrt3));

// (cos, sin) of each pointy-top corner's angle, 30 + 60*k degrees; the
// same values as computing them per call, so vertices stay bit-identical.
struct CornerFactor {
  double cos;
  double sin;
};
const std::array<CornerFactor, 6> kCornerFactors = [] {
  std::array<CornerFactor, 6> f{};
  for (int k = 0; k < 6; ++k) {
    const double ang = geo::deg2rad(60.0 * k + 30.0);
    f[static_cast<std::size_t>(k)] = {std::cos(ang), std::sin(ang)};
  }
  return f;
}();

void check_resolution(int resolution) {
  if (resolution < 0 || resolution > kMaxResolution) {
    throw std::out_of_range("hex: resolution outside [0, 15]");
  }
}

}  // namespace

double edge_length_km(int resolution) {
  check_resolution(resolution);
  // Aperture-4 ladder anchored at resolution 5.
  return kEdgeRes5Km * std::pow(2.0, 5 - resolution);
}

double cell_area_km2(int resolution) {
  const double a = edge_length_km(resolution);
  return 1.5 * kSqrt3 * a * a;
}

HexGrid::HexGrid(const geo::GeoPoint& center) : projection_(center) {}

geo::PlanePoint HexGrid::hex_to_plane(int resolution,
                                      HexCoord h) const noexcept {
  const double a = edge_length_km(resolution);
  return {a * kSqrt3 *
              (static_cast<double>(h.q) + static_cast<double>(h.r) / 2.0),
          a * 1.5 * static_cast<double>(h.r)};
}

FractionalHex HexGrid::plane_to_hex(int resolution,
                                    geo::PlanePoint p) const noexcept {
  const double a = edge_length_km(resolution);
  return {(kSqrt3 / 3.0 * p.x - p.y / 3.0) / a, (2.0 / 3.0 * p.y) / a};
}

CellId HexGrid::cell_of(const geo::GeoPoint& p, int resolution) const {
  check_resolution(resolution);
  const geo::PlanePoint q = projection_.forward(p);
  return CellId(resolution, hex_round(plane_to_hex(resolution, q)));
}

geo::GeoPoint HexGrid::center_of(CellId id) const {
  if (!id.valid()) throw std::invalid_argument("center_of: invalid cell");
  return projection_.inverse(hex_to_plane(id.resolution(), id.coord()));
}

std::array<geo::GeoPoint, 6> HexGrid::boundary_of(CellId id) const {
  if (!id.valid()) throw std::invalid_argument("boundary_of: invalid cell");
  const double a = edge_length_km(id.resolution());
  const geo::PlanePoint c = hex_to_plane(id.resolution(), id.coord());
  std::array<geo::GeoPoint, 6> out;
  for (std::size_t k = 0; k < out.size(); ++k) {
    out[k] = projection_.inverse({c.x + a * kCornerFactors[k].cos,
                                  c.y + a * kCornerFactors[k].sin});
  }
  return out;
}

CellId HexGrid::parent_of(CellId id, int parent_res) const {
  if (!id.valid()) throw std::invalid_argument("parent_of: invalid cell");
  if (parent_res >= id.resolution() || parent_res < 0) {
    throw std::invalid_argument("parent_of: parent_res must be coarser");
  }
  return cell_of(center_of(id), parent_res);
}

}  // namespace leodivide::hex
