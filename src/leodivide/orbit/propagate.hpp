#pragma once
// Batch propagation of a constellation: positions of every satellite at a
// sequence of epochs, in ECEF. A caller that needs a sub-satellite point
// takes geo::cartesian_to_spherical(ecef_km); the epoch loop never does.

#include <vector>

#include "leodivide/orbit/kepler.hpp"

namespace leodivide::orbit {

/// Snapshot of one satellite at one epoch.
struct SatState {
  geo::Vec3 ecef_km;  ///< position in the Earth-fixed frame
};

/// States of every satellite in `orbits` at time t, written into `out`
/// (resized to match). The Earth-rotation cos/sin pair is computed once for
/// the whole batch; reusing `out` across epochs makes the call
/// allocation-free at steady state.
void propagate_all(const std::vector<CircularOrbit>& orbits, double t_s,
                   std::vector<SatState>& out);

/// States of every satellite in `orbits` at time t.
[[nodiscard]] std::vector<SatState> propagate_all(
    const std::vector<CircularOrbit>& orbits, double t_s);

}  // namespace leodivide::orbit
