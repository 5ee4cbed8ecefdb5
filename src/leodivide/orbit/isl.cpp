#include "leodivide/orbit/isl.hpp"

#include <cmath>
#include <queue>
#include <stdexcept>

#include "leodivide/geo/angle.hpp"

namespace leodivide::orbit {

namespace {
constexpr double kSpeedOfLightKmPerMs = 299.792458;
}

IslGrid::IslGrid(const WalkerShell& shell) : shell_(shell) {
  if (shell_.planes == 0 || shell_.sats_per_plane == 0) {
    throw std::invalid_argument("IslGrid: empty shell");
  }
}

std::uint32_t IslGrid::index_of(SatAddress address) const {
  if (address.plane >= shell_.planes ||
      address.slot >= shell_.sats_per_plane) {
    throw std::out_of_range("IslGrid::index_of");
  }
  return address.plane * shell_.sats_per_plane + address.slot;
}

SatAddress IslGrid::address_of(std::uint32_t index) const {
  if (index >= size()) throw std::out_of_range("IslGrid::address_of");
  return {index / shell_.sats_per_plane, index % shell_.sats_per_plane};
}

std::vector<std::uint32_t> IslGrid::neighbors(std::uint32_t index) const {
  const SatAddress a = address_of(index);
  const std::uint32_t planes = shell_.planes;
  const std::uint32_t per_plane = shell_.sats_per_plane;
  std::vector<std::uint32_t> out;
  out.reserve(4);
  out.push_back(index_of({a.plane, (a.slot + 1) % per_plane}));
  out.push_back(index_of({a.plane, (a.slot + per_plane - 1) % per_plane}));
  if (planes > 1) {
    out.push_back(index_of({(a.plane + 1) % planes, a.slot}));
    if (planes > 2) {
      out.push_back(index_of({(a.plane + planes - 1) % planes, a.slot}));
    }
  }
  return out;
}

std::vector<std::uint32_t> IslGrid::hops_to_nearest(
    const std::vector<std::uint32_t>& sources) const {
  if (sources.empty()) {
    throw std::invalid_argument("hops_to_nearest: no sources");
  }
  std::vector<std::uint32_t> dist(size(), UINT32_MAX);
  std::queue<std::uint32_t> frontier;
  for (std::uint32_t s : sources) {
    if (s >= size()) throw std::out_of_range("hops_to_nearest: bad source");
    dist[s] = 0;
    frontier.push(s);
  }
  while (!frontier.empty()) {
    const std::uint32_t cur = frontier.front();
    frontier.pop();
    for (std::uint32_t n : neighbors(cur)) {
      if (dist[n] != UINT32_MAX) continue;
      dist[n] = dist[cur] + 1;
      frontier.push(n);
    }
  }
  return dist;
}

double IslGrid::intra_plane_link_km() const {
  const double r = geo::kEarthRadiusKm + shell_.altitude_km;
  const double theta =
      geo::kTwoPi / static_cast<double>(shell_.sats_per_plane);
  return 2.0 * r * std::sin(theta / 2.0);
}

double propagation_delay_ms(double distance_km) {
  if (distance_km < 0.0) {
    throw std::invalid_argument("propagation_delay_ms: negative distance");
  }
  return distance_km / kSpeedOfLightKmPerMs;
}

double bent_pipe_delay_ms(double ut_slant_km, double gw_slant_km) {
  return propagation_delay_ms(ut_slant_km) + propagation_delay_ms(gw_slant_km);
}

}  // namespace leodivide::orbit
