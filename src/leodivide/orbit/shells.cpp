#include "leodivide/orbit/shells.hpp"

#include <stdexcept>

namespace leodivide::orbit {

MultiShellConstellation::MultiShellConstellation(
    std::vector<WalkerShell> shells)
    : shells_(std::move(shells)) {}

std::uint32_t MultiShellConstellation::total_sats() const noexcept {
  std::uint32_t n = 0;
  for (const auto& s : shells_) n += s.total_sats();
  return n;
}

double MultiShellConstellation::surface_density_per_km2(double lat_deg) const {
  double rho = 0.0;
  for (const auto& s : shells_) {
    rho += orbit::surface_density_per_km2(s.total_sats(), lat_deg,
                                          s.inclination_deg);
  }
  return rho;
}

double MultiShellConstellation::size_for_density(
    double required_density_per_km2, double lat_deg) const {
  if (required_density_per_km2 <= 0.0) {
    throw std::invalid_argument("size_for_density: density must be > 0");
  }
  if (shells_.empty()) {
    throw std::invalid_argument("size_for_density: no shells");
  }
  const double rho = surface_density_per_km2(lat_deg);
  if (rho <= 0.0) {
    throw std::invalid_argument(
        "size_for_density: latitude outside every shell's coverage band");
  }
  const double factor = required_density_per_km2 / rho;
  return factor * static_cast<double>(total_sats());
}

MultiShellConstellation starlink_gen1() {
  return MultiShellConstellation{{
      {53.0, 550.0, 72, 22, 1},   // shell 1: 1584
      {53.2, 540.0, 72, 22, 1},   // shell 2: 1584
      {70.0, 570.0, 36, 20, 1},   // shell 3: 720
      {97.6, 560.0, 6, 58, 1},    // shell 4: 348 (polar)
      {97.6, 560.1, 4, 43, 1},    // shell 5: 172 (polar)
  }};
}

}  // namespace leodivide::orbit
