#pragma once
// Test oracles: the naive implementations the library's fast paths must
// match bit for bit, and the one-call VisIndex query the tests read
// candidate sets through. Linked by the tests and micro_perf only, never by
// the shipped library.

#include <cstdint>
#include <iosfwd>
#include <stdexcept>
#include <vector>

#include "leodivide/demand/dataset.hpp"
#include "leodivide/geo/polygon.hpp"
#include "leodivide/hex/hexgrid.hpp"
#include "leodivide/hex/polyfill.hpp"
#include "leodivide/orbit/propagate.hpp"
#include "leodivide/orbit/visindex.hpp"
#include "leodivide/sim/scheduler.hpp"
#include "leodivide/stats/rng.hpp"

namespace leodivide::oracle {

/// Uniform double in [lo, hi), drawn from `rng`: the seeded generators'
/// sampler. Throws std::invalid_argument when lo > hi.
[[nodiscard]] inline double sample_uniform(stats::Pcg32& rng, double lo,
                                           double hi) {
  if (!(lo <= hi)) throw std::invalid_argument("sample_uniform: lo > hi");
  return lo + (hi - lo) * rng.next_double();
}

/// The naive O(cells x sats) scheduling kernel, kept verbatim from before
/// the visibility index: scans every satellite per cell, in the scheduler's
/// processing order. BeamScheduler::schedule must equal it byte for byte.
[[nodiscard]] sim::ScheduleResult schedule_reference(
    const sim::BeamScheduler& scheduler,
    const std::vector<orbit::SatState>& sats);

/// ECEF position of one satellite at time t since epoch: eci_position
/// rotated by the Earth angle, one satellite at a time. propagate_all's
/// batched rotation must equal it bit for bit.
[[nodiscard]] geo::Vec3 ecef_position(const orbit::CircularOrbit& orbit,
                                      double t_s);

/// Every live VisIndex candidate for `cell`, ascending: window() at the
/// index's own angle, then scan() with cos_psi = -inf (which keeps every
/// live satellite of the window), then a sort. The scheduler keeps each
/// cell's window spans and scans alone; tests compare whole candidate sets.
[[nodiscard]] std::vector<std::uint32_t> vis_candidates(
    const orbit::VisIndex& index, const geo::GeoPoint& cell);

/// Even-odd point-in-polygon over every edge, kept verbatim from before the
/// latitude-slab index: the bbox test, then each edge (a = vertex i, b =
/// vertex i - 1) that crosses p's latitude toggles when p lies left of it.
/// geo::Polygon::contains must equal it for every point.
[[nodiscard]] bool polygon_contains_reference(const geo::Polygon& poly,
                                              const geo::GeoPoint& p);

/// A seeded star-shaped polygon around a random (lat0, lon0), |lat0| <= 40:
/// sorted random angles, radii in [0.5, 6] deg, so simple and usually
/// concave. With `snap_deg` > 0 every vertex latitude is rounded to that
/// grid, which repeats latitudes and makes horizontal edges.
[[nodiscard]] std::vector<geo::GeoPoint> random_star(stats::Pcg32& rng,
                                                     double snap_deg);

/// A seeded histogram polygon: a flat base and a top profile of random
/// column heights on a coarse latitude grid, some columns flat (horizontal
/// edges) and some slanted. Simple and concave, with many repeated
/// latitudes.
[[nodiscard]] std::vector<geo::GeoPoint> random_histogram(stats::Pcg32& rng);

/// hex::polyfill's per-cell scan, kept verbatim from before the block
/// classifier: every window candidate is projected and tested with
/// contains(), one contiguous block of q-columns per shard. hex::polyfill
/// must equal it, centres bit for bit, at every thread count.
[[nodiscard]] hex::PolyfillCells polyfill_reference(
    const hex::HexGrid& grid, const geo::Polygon& poly, int resolution,
    runtime::Executor& executor);

/// demand::write_geojson kept verbatim from before the chunked export: one
/// io::JsonWriter call per key, value and bracket, serially in cell order.
/// demand::write_geojson must equal it byte for byte at every thread count.
void write_geojson_reference(std::ostream& out,
                             const demand::DemandProfile& profile,
                             const hex::HexGrid& grid,
                             std::uint32_t min_locations);

}  // namespace leodivide::oracle
