#include "leodivide/orbit/walker.hpp"

#include <sstream>
#include <stdexcept>
#include <string>

#include "leodivide/geo/angle.hpp"

namespace leodivide::orbit {

std::string WalkerShell::to_string() const {
  std::ostringstream os;
  os << inclination_deg << ":" << total_sats() << "/" << planes << "/"
     << phasing << " @ " << altitude_km << "km";
  return os.str();
}

WalkerShell starlink_shell1() noexcept {
  return WalkerShell{53.0, 550.0, 72, 22, 1};
}

void check_shell(const WalkerShell& shell) {
  if (shell.planes == 0 || shell.sats_per_plane == 0) {
    throw std::invalid_argument("make_constellation: empty shell");
  }
  if (shell.phasing >= shell.planes) {
    throw std::invalid_argument("make_constellation: phasing must be < planes");
  }
  if (std::uint64_t{shell.planes} * shell.sats_per_plane >
      kMaxShellSatellites) {
    throw std::invalid_argument(
        "make_constellation: the shell exceeds " +
        std::to_string(kMaxShellSatellites) + " satellites");
  }
}

std::vector<CircularOrbit> make_constellation(const WalkerShell& shell) {
  check_shell(shell);
  std::vector<CircularOrbit> orbits;
  orbits.reserve(shell.total_sats());
  const double inc = geo::deg2rad(shell.inclination_deg);
  const auto planes = static_cast<double>(shell.planes);
  const auto per_plane = static_cast<double>(shell.sats_per_plane);
  for (std::uint32_t p = 0; p < shell.planes; ++p) {
    const double raan = geo::kTwoPi * static_cast<double>(p) / planes;
    for (std::uint32_t k = 0; k < shell.sats_per_plane; ++k) {
      const double phase =
          geo::kTwoPi * (static_cast<double>(k) / per_plane +
                         static_cast<double>(shell.phasing) *
                             static_cast<double>(p) / (planes * per_plane));
      orbits.push_back(CircularOrbit{shell.altitude_km, inc, raan, phase});
    }
  }
  return orbits;
}

}  // namespace leodivide::orbit
