// Unit and property tests for leodivide::orbit.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

#include "leodivide/geo/angle.hpp"
#include "leodivide/geo/greatcircle.hpp"
#include "leodivide/orbit/density.hpp"
#include "leodivide/orbit/footprint.hpp"
#include "leodivide/orbit/kepler.hpp"
#include "leodivide/orbit/propagate.hpp"
#include "leodivide/orbit/walker.hpp"
#include "oracles/oracles.hpp"

namespace leodivide::orbit {
namespace {

CircularOrbit starlink_orbit() {
  return CircularOrbit{550.0, geo::deg2rad(53.0), 0.0, 0.0};
}

// ----------------------------------------------------------------- kepler ----

TEST(Kepler, PeriodAt550KmIsAbout95Minutes) {
  EXPECT_NEAR(starlink_orbit().period_s(), 95.6 * 60.0, 60.0);
}

TEST(Kepler, HigherOrbitHasLongerPeriod) {
  CircularOrbit low{550.0}, high{1200.0};
  EXPECT_LT(low.period_s(), high.period_s());
}

TEST(Kepler, PositionStaysOnOrbitSphere) {
  const CircularOrbit orbit = starlink_orbit();
  for (double t = 0.0; t < orbit.period_s(); t += 200.0) {
    EXPECT_NEAR(eci_position(orbit, t).norm(), orbit.radius_km(), 1e-6);
  }
}

TEST(Kepler, OrbitIsPeriodicInEci) {
  const CircularOrbit orbit = starlink_orbit();
  const geo::Vec3 p0 = eci_position(orbit, 0.0);
  const geo::Vec3 p1 = eci_position(orbit, orbit.period_s());
  EXPECT_NEAR((geo::Vec3{p1.x - p0.x, p1.y - p0.y, p1.z - p0.z}).norm(), 0.0,
              1e-6);
}

TEST(Kepler, EquatorialOrbitStaysOnEquator) {
  const CircularOrbit orbit{550.0, 0.0, 0.0, 0.0};
  for (double t = 0.0; t < 6000.0; t += 500.0) {
    EXPECT_NEAR(subsatellite_point(orbit, t).lat_deg, 0.0, 1e-9);
  }
}

TEST(Kepler, GroundLatitudeBoundedByInclination) {
  const CircularOrbit orbit = starlink_orbit();
  for (double t = 0.0; t < 2.0 * orbit.period_s(); t += 60.0) {
    EXPECT_LE(std::abs(subsatellite_point(orbit, t).lat_deg), 53.0 + 1e-6);
  }
}

TEST(Kepler, GroundTrackReachesInclinationLatitude) {
  const CircularOrbit orbit = starlink_orbit();
  double max_lat = 0.0;
  for (double t = 0.0; t < orbit.period_s(); t += 5.0) {
    max_lat = std::max(max_lat, subsatellite_point(orbit, t).lat_deg);
  }
  EXPECT_NEAR(max_lat, 53.0, 0.1);
}

// ----------------------------------------------------------------- walker ----

TEST(Walker, Shell1Is1584Sats) {
  const WalkerShell shell = starlink_shell1();
  EXPECT_EQ(shell.total_sats(), 1584U);
  EXPECT_EQ(make_constellation(shell).size(), 1584U);
}

TEST(Walker, ToStringFormat) {
  EXPECT_EQ(starlink_shell1().to_string(), "53:1584/72/1 @ 550km");
}

TEST(Walker, AllOrbitsShareAltitudeAndInclination) {
  const auto orbits = make_constellation(starlink_shell1());
  for (const auto& o : orbits) {
    EXPECT_DOUBLE_EQ(o.altitude_km, 550.0);
    EXPECT_NEAR(o.inclination_rad, geo::deg2rad(53.0), 1e-12);
  }
}

TEST(Walker, RaanIsEvenlySpaced) {
  const WalkerShell shell{53.0, 550.0, 8, 3, 1};
  const auto orbits = make_constellation(shell);
  for (std::uint32_t p = 0; p < shell.planes; ++p) {
    EXPECT_NEAR(orbits[p * 3].raan_rad, geo::kTwoPi * p / 8.0, 1e-12);
  }
}

TEST(Walker, PhasesWithinPlaneAreEvenlySpaced) {
  const WalkerShell shell{53.0, 550.0, 4, 5, 0};
  const auto orbits = make_constellation(shell);
  for (std::uint32_t k = 1; k < 5; ++k) {
    EXPECT_NEAR(orbits[k].phase_rad - orbits[k - 1].phase_rad,
                geo::kTwoPi / 5.0, 1e-12);
  }
}

TEST(Walker, RejectsShellsPastTheSatelliteBound) {
  // 1000 x 1000 is exactly the bound; one more satellite per plane is over.
  // 65535 x 65537 is 2^32 - 1 satellites, and 65536 x 65536 wraps a 32-bit
  // product to 0: both must fail typed before any orbit is reserved.
  ASSERT_EQ(std::uint64_t{1000} * 1000, kMaxShellSatellites);
  EXPECT_NO_THROW(check_shell({53.0, 550.0, 1000, 1000, 1}));
  for (const WalkerShell shell : {WalkerShell{53.0, 550.0, 1000, 1001, 1},
                                  WalkerShell{53.0, 550.0, 1001, 1000, 1},
                                  WalkerShell{53.0, 550.0, 65535, 65537, 1},
                                  WalkerShell{53.0, 550.0, 65536, 65536, 1}}) {
    EXPECT_THROW(check_shell(shell), std::invalid_argument)
        << shell.planes << " x " << shell.sats_per_plane;
    EXPECT_THROW((void)make_constellation(shell), std::invalid_argument)
        << shell.planes << " x " << shell.sats_per_plane;
  }
}

TEST(Walker, RejectsDegenerateShells) {
  EXPECT_THROW(make_constellation({53.0, 550.0, 0, 22, 1}),
               std::invalid_argument);
  EXPECT_THROW(make_constellation({53.0, 550.0, 72, 0, 1}),
               std::invalid_argument);
  EXPECT_THROW(make_constellation({53.0, 550.0, 4, 4, 4}),
               std::invalid_argument);
}

// -------------------------------------------------------------- propagate ----

TEST(Propagate, EcefMatchesSubsatellitePoint) {
  const CircularOrbit orbit = starlink_orbit();
  for (double t : {0.0, 1234.0, 5000.0}) {
    const geo::GeoPoint from_ecef =
        geo::cartesian_to_spherical(oracle::ecef_position(orbit, t));
    const geo::GeoPoint sub = subsatellite_point(orbit, t);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(from_ecef.lat_deg),
              std::bit_cast<std::uint64_t>(sub.lat_deg));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(from_ecef.lon_deg),
              std::bit_cast<std::uint64_t>(sub.lon_deg));
  }
}

// The batched propagation must stay bit-identical to the per-satellite
// oracle, positions and the sub-satellite points they give alike.
TEST(Propagate, AllMatchesPerSatelliteOracle) {
  WalkerShell shell = starlink_shell1();
  shell.planes = 12;
  shell.sats_per_plane = 11;  // 132 sats
  const std::vector<CircularOrbit> orbits = make_constellation(shell);
  for (const double t_s : {0.0, 17.3, 5400.0, 86400.0 + 0.125}) {
    const std::vector<SatState> batch = propagate_all(orbits, t_s);
    ASSERT_EQ(batch.size(), orbits.size());
    for (std::size_t i = 0; i < orbits.size(); ++i) {
      const geo::Vec3 ref = oracle::ecef_position(orbits[i], t_s);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(batch[i].ecef_km.x),
                std::bit_cast<std::uint64_t>(ref.x));
      EXPECT_EQ(std::bit_cast<std::uint64_t>(batch[i].ecef_km.y),
                std::bit_cast<std::uint64_t>(ref.y));
      EXPECT_EQ(std::bit_cast<std::uint64_t>(batch[i].ecef_km.z),
                std::bit_cast<std::uint64_t>(ref.z));
      const geo::GeoPoint sub = geo::cartesian_to_spherical(ref);
      const geo::GeoPoint batch_sub =
          geo::cartesian_to_spherical(batch[i].ecef_km);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(batch_sub.lat_deg),
                std::bit_cast<std::uint64_t>(sub.lat_deg));
      EXPECT_EQ(std::bit_cast<std::uint64_t>(batch_sub.lon_deg),
                std::bit_cast<std::uint64_t>(sub.lon_deg));
    }
  }
}

TEST(Propagate, AllStatesHaveConsistentRadius) {
  const auto orbits = make_constellation(starlink_shell1());
  const auto states = propagate_all(orbits, 777.0);
  ASSERT_EQ(states.size(), orbits.size());
  for (const auto& s : states) {
    EXPECT_NEAR(s.ecef_km.norm(), geo::kEarthRadiusKm + 550.0, 1e-6);
  }
}

// ---------------------------------------------------------------- footprint ----

TEST(Footprint, ZeroElevationGivesWidestFootprint) {
  const double wide = footprint_radius_km(550.0, 0.0);
  const double narrow = footprint_radius_km(550.0, 25.0);
  const double very_narrow = footprint_radius_km(550.0, 60.0);
  EXPECT_GT(wide, narrow);
  EXPECT_GT(narrow, very_narrow);
}

TEST(Footprint, KnownStarlinkGeometry) {
  // 550 km altitude, 25-degree mask: coverage radius ~ 940 km.
  EXPECT_NEAR(footprint_radius_km(550.0, 25.0), 940.0, 40.0);
}

TEST(Footprint, RejectsBadInputs) {
  EXPECT_THROW((void)coverage_central_angle_rad(0.0, 25.0),
               std::invalid_argument);
  EXPECT_THROW((void)coverage_central_angle_rad(550.0, 90.0),
               std::invalid_argument);
  EXPECT_THROW((void)coverage_central_angle_rad(550.0, -1.0),
               std::invalid_argument);
  EXPECT_THROW((void)coverage_central_angle_rad(550.0, std::nan("")),
               std::invalid_argument);
  EXPECT_THROW((void)coverage_central_angle_rad(std::nan(""), 25.0),
               std::invalid_argument);
}

// ------------------------------------------------------------------ density ----

TEST(Density, ZeroOutsideInclinationBand) {
  EXPECT_DOUBLE_EQ(surface_density_per_km2(1000, 60.0, 53.0), 0.0);
  EXPECT_DOUBLE_EQ(surface_density_per_km2(1000, -54.0, 53.0), 0.0);
  EXPECT_DOUBLE_EQ(surface_density_per_km2(1000, 75.0, 53.0), 0.0);
}

TEST(Density, IncreasesTowardInclinationLatitude) {
  double prev = 0.0;
  for (double lat = 0.0; lat <= 50.0; lat += 10.0) {
    const double d = surface_density_per_km2(1584, lat, 53.0);
    EXPECT_GT(d, prev);
    prev = d;
  }
}

TEST(Density, RelativeDensityIntegratesLikeUniform) {
  // Weighted by area, the density relative to the global mean N / (4 pi
  // R^2) must average to 1.
  const double n_sats = 1584.0;
  const double mean_density = n_sats / geo::kEarthSurfaceAreaKm2;
  double integral = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double lat = -90.0 + 180.0 * (i + 0.5) / n;
    const double band = std::cos(geo::deg2rad(lat)) / 2.0;
    const double relative =
        surface_density_per_km2(n_sats, lat, 53.0) / mean_density;
    integral += relative * band * geo::deg2rad(180.0 / n);
  }
  EXPECT_NEAR(integral, 1.0, 0.01);
}

TEST(Density, InverseProblemRoundTrip) {
  const double n_sats = 8000.0;
  const double rho = surface_density_per_km2(n_sats, 37.0, 53.0);
  EXPECT_NEAR(constellation_size_for_density(rho, 37.0, 53.0), n_sats, 1e-6);
}

TEST(Density, InverseRejectsOutOfBandLatitude) {
  EXPECT_THROW((void)constellation_size_for_density(1e-4, 60.0, 53.0),
               std::invalid_argument);
  EXPECT_THROW((void)constellation_size_for_density(0.0, 30.0, 53.0),
               std::invalid_argument);
}

TEST(Density, EmpiricalMatchesAnalyticAtMidLatitudes) {
  // Time-averaged density from actual propagation should match the analytic
  // formula away from the divergence at the inclination limit.
  const WalkerShell shell = starlink_shell1();
  const auto empirical = empirical_density_per_km2(shell, 200, 36);
  for (int band = 0; band < 36; ++band) {
    const double lat = -90.0 + (band + 0.5) * 5.0;
    if (std::abs(lat) > 45.0) continue;  // skip the divergent edge bands
    const double analytic =
        surface_density_per_km2(shell.total_sats(), lat, 53.0);
    EXPECT_NEAR(empirical[static_cast<std::size_t>(band)], analytic,
                analytic * 0.15)
        << "latitude band " << lat;
  }
}

TEST(Density, EmpiricalRejectsBadInputs) {
  EXPECT_THROW(empirical_density_per_km2(starlink_shell1(), 0, 10),
               std::invalid_argument);
  EXPECT_THROW(empirical_density_per_km2(starlink_shell1(), 10, 0),
               std::invalid_argument);
}

// ------------------------------------------------- parameterized sweeps ----

class PeriodSweep : public ::testing::TestWithParam<double> {};

TEST_P(PeriodSweep, KeplerThirdLawHolds) {
  const double alt = GetParam();
  const CircularOrbit orbit{alt};
  const double r = orbit.radius_km();
  const double t = orbit.period_s();
  // T^2 / a^3 = 4 pi^2 / mu.
  EXPECT_NEAR(t * t / (r * r * r),
              4.0 * geo::kPi * geo::kPi / geo::kMuEarth, 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Altitudes, PeriodSweep,
                         ::testing::Values(340.0, 550.0, 570.0, 1150.0,
                                           1325.0));

class FootprintMonotone : public ::testing::TestWithParam<double> {};

TEST_P(FootprintMonotone, HigherAltitudeWiderFootprint) {
  const double elev = GetParam();
  double prev = 0.0;
  for (double alt : {340.0, 550.0, 1150.0}) {
    const double r = footprint_radius_km(alt, elev);
    EXPECT_GT(r, prev);
    prev = r;
  }
}

INSTANTIATE_TEST_SUITE_P(Elevations, FootprintMonotone,
                         ::testing::Values(0.0, 10.0, 25.0, 40.0, 55.0));

}  // namespace
}  // namespace leodivide::orbit

// Appended: multi-shell constellation tests (orbit/shells.hpp).
#include "leodivide/orbit/shells.hpp"

namespace leodivide::orbit {
namespace {

TEST(MultiShell, Gen1TotalsAndCoverage) {
  const MultiShellConstellation gen1 = starlink_gen1();
  EXPECT_EQ(gen1.shells().size(), 5U);
  // 1584 + 1584 + 720 + 348 + 172 = 4408 authorised Gen1 satellites.
  EXPECT_EQ(gen1.total_sats(), 4408U);
  // Polar shells (97.6 deg retrograde) cover up to 180 - 97.6 = 82.4 deg.
  EXPECT_GT(gen1.surface_density_per_km2(82.3), 0.0);
  EXPECT_DOUBLE_EQ(gen1.surface_density_per_km2(82.5), 0.0);
}

TEST(MultiShell, DensityIsSumOfShellDensities) {
  const MultiShellConstellation mix(
      {{53.0, 550.0, 72, 22, 1}, {70.0, 570.0, 36, 20, 1}});
  const double at40 = mix.surface_density_per_km2(40.0);
  const double expected =
      surface_density_per_km2(1584, 40.0, 53.0) +
      surface_density_per_km2(720, 40.0, 70.0);
  EXPECT_NEAR(at40, expected, expected * 1e-12);
}

TEST(MultiShell, HighLatitudeOnlyCoveredByHighInclination) {
  const MultiShellConstellation gen1 = starlink_gen1();
  // At 75 deg N only the polar shells contribute.
  const double polar_only =
      surface_density_per_km2(348, 75.0, 97.6) +
      surface_density_per_km2(172, 75.0, 97.6);
  EXPECT_NEAR(gen1.surface_density_per_km2(75.0), polar_only,
              polar_only * 1e-12);
}

TEST(MultiShell, SizeForDensityScalesLinearly) {
  const MultiShellConstellation gen1 = starlink_gen1();
  const double rho = gen1.surface_density_per_km2(36.5);
  // Requiring exactly today's density returns today's fleet.
  EXPECT_NEAR(gen1.size_for_density(rho, 36.5), 4408.0, 1e-6);
  EXPECT_NEAR(gen1.size_for_density(2.0 * rho, 36.5), 8816.0, 1e-6);
}

TEST(MultiShell, SizeForDensityRejectsUncoveredLatitude) {
  const MultiShellConstellation mix({{53.0, 550.0, 72, 22, 1}});
  EXPECT_THROW((void)mix.size_for_density(1e-4, 60.0), std::invalid_argument);
  EXPECT_THROW((void)mix.size_for_density(0.0, 30.0), std::invalid_argument);
  EXPECT_THROW((void)MultiShellConstellation{}.size_for_density(1e-4, 30.0),
               std::invalid_argument);
}

TEST(MultiShell, LowerInclinationNeedsFewerSatsAtMidLatitudes) {
  // The shell-design ablation's core claim: density at 36.5 deg per
  // satellite is higher for a 43-degree shell than a 53-degree one.
  EXPECT_GT(surface_density_per_km2(1000, 36.5, 43.0),
            surface_density_per_km2(1000, 36.5, 53.0));
}

}  // namespace
}  // namespace leodivide::orbit

// Appended: inter-satellite link topology (orbit/isl.hpp).
#include "leodivide/orbit/isl.hpp"

namespace leodivide::orbit {
namespace {

TEST(Isl, AddressRoundTrip) {
  const IslGrid grid(WalkerShell{53.0, 550.0, 8, 5, 1});
  for (std::uint32_t i = 0; i < grid.size(); ++i) {
    EXPECT_EQ(grid.index_of(grid.address_of(i)), i);
  }
  EXPECT_THROW((void)grid.index_of({8, 0}), std::out_of_range);
  EXPECT_THROW((void)grid.address_of(40), std::out_of_range);
}

TEST(Isl, PlusGridHasFourNeighbors) {
  const IslGrid grid(starlink_shell1());
  const auto n = grid.neighbors(100);
  EXPECT_EQ(n.size(), 4U);
  // Symmetry: every neighbour lists us back.
  for (std::uint32_t x : n) {
    const auto back = grid.neighbors(x);
    EXPECT_NE(std::find(back.begin(), back.end(), 100U), back.end());
  }
}

TEST(Isl, SmallShellsDegradeGracefully) {
  // Two planes: +grid collapses the second inter-plane link.
  const IslGrid grid(WalkerShell{53.0, 550.0, 2, 4, 1});
  EXPECT_EQ(grid.neighbors(0).size(), 3U);
}

TEST(Isl, HopDistanceProperties) {
  const IslGrid grid(WalkerShell{53.0, 550.0, 6, 6, 1});
  // Hops from a single source are hop distances.
  const auto from = [&grid](std::uint32_t a) {
    return grid.hops_to_nearest({a});
  };
  EXPECT_EQ(from(0)[0], 0U);
  // Adjacent satellites are one hop.
  for (std::uint32_t n : grid.neighbors(7)) {
    EXPECT_EQ(from(7)[n], 1U);
  }
  // Symmetric.
  EXPECT_EQ(from(3)[27], from(27)[3]);
  // Torus diameter bound: planes/2 + per_plane/2.
  for (std::uint32_t b = 0; b < grid.size(); b += 5) {
    EXPECT_LE(from(0)[b], 6U);
  }
}

TEST(Isl, HopsToNearestGateway) {
  const IslGrid grid(WalkerShell{53.0, 550.0, 6, 6, 1});
  const std::vector<std::uint32_t> sources{0, 18};
  const auto hops = grid.hops_to_nearest(sources);
  ASSERT_EQ(hops.size(), grid.size());
  EXPECT_EQ(hops[0], 0U);
  EXPECT_EQ(hops[18], 0U);
  for (std::uint32_t i = 0; i < grid.size(); ++i) {
    EXPECT_LT(hops[i], 7U);  // everything reachable within the diameter
  }
  EXPECT_THROW((void)grid.hops_to_nearest({}), std::invalid_argument);
}

TEST(Isl, IntraPlaneLinkLength) {
  // 22 sats per plane at 550 km: chord of 2*pi/22 on a 6921 km circle.
  const IslGrid grid(starlink_shell1());
  EXPECT_NEAR(grid.intra_plane_link_km(), 1975.0, 15.0);
}

TEST(Isl, PropagationDelays) {
  EXPECT_NEAR(propagation_delay_ms(299.792458), 1.0, 1e-12);
  // Bent pipe with both slants at 600 km: ~4 ms one way.
  EXPECT_NEAR(bent_pipe_delay_ms(600.0, 600.0), 4.0, 0.01);
  EXPECT_THROW((void)propagation_delay_ms(-1.0), std::invalid_argument);
}

TEST(Isl, GeoComparisonFavorsLeo) {
  // The motivation in Section 2.1: GEO at 35,786 km vs LEO at ~600 km.
  const double leo = bent_pipe_delay_ms(600.0, 600.0);
  const double geo_delay = bent_pipe_delay_ms(35786.0, 35786.0);
  EXPECT_GT(geo_delay / leo, 50.0);
}

}  // namespace
}  // namespace leodivide::orbit

// Appended: the per-epoch satellite spatial index (orbit/visindex.hpp).
#include <algorithm>
#include <limits>

#include "leodivide/orbit/visindex.hpp"
#include "leodivide/stats/rng.hpp"

namespace leodivide::orbit {
namespace {

std::vector<SatState> shell_states(const WalkerShell& shell, double t_s) {
  return propagate_all(make_constellation(shell), t_s);
}

TEST(VisIndex, IndexesEverySatelliteExactlyOnce) {
  const auto states = shell_states({53.0, 550.0, 24, 18, 5}, 777.0);
  VisIndex index;
  index.build(states, 0.3);
  EXPECT_EQ(index.sat_count(), states.size());
  // Querying every bucket's worth of sky must see each satellite once: walk
  // a dense grid of cells and union the candidates.
  std::vector<std::uint32_t> all;
  for (double lat = -87.5; lat < 90.0; lat += 5.0) {
    for (double lon = -177.5; lon < 180.0; lon += 5.0) {
      const auto candidates = oracle::vis_candidates(index, {lat, lon});
      all.insert(all.end(), candidates.begin(), candidates.end());
    }
  }
  std::sort(all.begin(), all.end());
  all.erase(std::unique(all.begin(), all.end()), all.end());
  EXPECT_EQ(all.size(), states.size());
}

TEST(VisIndex, CandidatesAreSortedUniqueSupersets) {
  stats::Pcg32 rng(42);
  const auto states = shell_states({70.0, 800.0, 16, 14, 3}, 505.0);
  const double psi_rad = 0.25;
  const double cos_psi = std::cos(psi_rad);
  VisIndex index;
  index.build(states, psi_rad);
  for (int i = 0; i < 300; ++i) {
    const geo::GeoPoint cell{-90.0 + rng.next_double() * 180.0,
                             -180.0 + rng.next_double() * 360.0};
    const auto candidates = oracle::vis_candidates(index, cell);
    ASSERT_EQ(std::adjacent_find(candidates.begin(), candidates.end()),
              candidates.end());
    const geo::Vec3 cu =
        geo::spherical_to_cartesian(cell, geo::kEarthRadiusKm).unit();
    for (std::uint32_t si = 0; si < states.size(); ++si) {
      if (cu.dot(states[si].ecef_km.unit()) >= cos_psi) {
        EXPECT_TRUE(std::binary_search(candidates.begin(), candidates.end(),
                                       si))
            << "visible sat " << si << " missing for cell " << cell.lat_deg
            << "," << cell.lon_deg;
      }
    }
  }
}

TEST(VisIndex, PolarCellSeesHighLatitudeSatellites) {
  // A pole-centred cap spans all longitudes; every satellite within psi in
  // latitude must be a candidate regardless of its longitude.
  std::vector<SatState> states;
  for (double lon = -180.0; lon < 180.0; lon += 30.0) {
    SatState s;
    s.ecef_km = geo::spherical_to_cartesian({80.0, lon},
                                            geo::kEarthRadiusKm + 550.0);
    states.push_back(s);
  }
  VisIndex index;
  index.build(states, geo::deg2rad(15.0));
  EXPECT_EQ(oracle::vis_candidates(index, {88.0, 13.0}).size(),
            states.size());
}

TEST(VisIndex, DateLineWindowWrapsBothWays) {
  std::vector<SatState> states;
  for (double lon : {179.5, -179.5, 170.0, -170.0, 0.0}) {
    SatState s;
    s.ecef_km = geo::spherical_to_cartesian({10.0, lon},
                                            geo::kEarthRadiusKm + 550.0);
    states.push_back(s);
  }
  VisIndex index;
  index.build(states, geo::deg2rad(12.0));
  const auto candidates = oracle::vis_candidates(index, {10.0, 179.9});
  // Both near-date-line satellites (indices 0 and 1) must be candidates;
  // the one at lon 0 must not.
  EXPECT_TRUE(std::binary_search(candidates.begin(), candidates.end(), 0U));
  EXPECT_TRUE(std::binary_search(candidates.begin(), candidates.end(), 1U));
  EXPECT_FALSE(std::binary_search(candidates.begin(), candidates.end(), 4U));
}

TEST(VisIndex, RebuildReusesStorageAcrossEpochs) {
  const auto orbits = make_constellation(WalkerShell{53.0, 550.0, 12, 10, 1});
  VisIndex index;
  std::vector<SatState> states;
  for (int e = 0; e < 5; ++e) {
    propagate_all(orbits, 60.0 * e, states);
    index.build(states, 0.3);
    EXPECT_EQ(index.sat_count(), states.size());
    const auto candidates = oracle::vis_candidates(index, {45.0, -100.0});
    EXPECT_EQ(std::adjacent_find(candidates.begin(), candidates.end()),
              candidates.end());
  }
}

TEST(VisIndex, NearVerticalMaskClampsTheGridBeforeCasting) {
  // A mask a hair under 90 deg gives a psi so small that 180/psi and
  // 360/psi exceed uint32_t; the grid counts must be clamped in double
  // before the cast (float-cast-overflow under UBSan otherwise).
  const double psi_rad = coverage_central_angle_rad(550.0, 89.99999999999);
  ASSERT_GT(psi_rad, 0.0);
  ASSERT_GT(180.0 / geo::rad2deg(psi_rad), 4294967295.0);
  const auto states = shell_states({53.0, 550.0, 12, 10, 1}, 300.0);
  VisIndex index;
  index.build(states, psi_rad);
  EXPECT_EQ(index.band_count(), 256U);
  EXPECT_LE(index.bucket_count(), 256U * 1024U);
  for (std::uint32_t si = 0; si < states.size(); ++si) {
    const auto candidates = oracle::vis_candidates(
        index, geo::cartesian_to_spherical(states[si].ecef_km));
    EXPECT_TRUE(std::binary_search(candidates.begin(), candidates.end(), si))
        << "sat " << si << " missing at its own sub-point";
  }
}

TEST(VisIndex, RetiredSatellitesLeaveTheGather) {
  const auto states = shell_states({53.0, 550.0, 24, 18, 5}, 777.0);
  VisIndex index;
  index.build(states, 0.3);
  stats::Pcg32 rng(5);
  std::vector<geo::GeoPoint> cells;
  for (int i = 0; i < 40; ++i) {
    cells.push_back({-80.0 + rng.next_double() * 160.0,
                     -180.0 + rng.next_double() * 360.0});
  }
  std::vector<std::vector<std::uint32_t>> before;
  for (const geo::GeoPoint& cell : cells) {
    before.push_back(oracle::vis_candidates(index, cell));
  }
  std::vector<std::uint8_t> retired(states.size(), 0);
  for (std::uint32_t si = 0; si < states.size(); ++si) {
    if (rng.next_below(3) == 0) {
      index.retire(si);
      retired[si] = 1;
    }
  }
  for (std::size_t c = 0; c < cells.size(); ++c) {
    std::vector<std::uint32_t> expected;
    for (const std::uint32_t si : before[c]) {
      if (retired[si] == 0) expected.push_back(si);
    }
    EXPECT_EQ(oracle::vis_candidates(index, cells[c]), expected)
        << "cell " << c;
  }
}

TEST(VisIndex, DoubleRetireIsANoOp) {
  const auto states = shell_states({53.0, 550.0, 24, 18, 5}, 777.0);
  VisIndex index;
  index.build(states, 0.3);
  const geo::GeoPoint cell = geo::cartesian_to_spherical(states[17].ecef_km);
  index.retire(17);
  const auto once = oracle::vis_candidates(index, cell);
  EXPECT_FALSE(std::binary_search(once.begin(), once.end(), 17U));
  index.retire(17);
  EXPECT_EQ(oracle::vis_candidates(index, cell), once);
  index.retire(static_cast<std::uint32_t>(states.size()));  // not indexed
  EXPECT_EQ(oracle::vis_candidates(index, cell), once);
}

TEST(VisIndex, RetireCanEmptyABucketAndBuildRestoresIt) {
  // Five satellites over one spot share a bucket; retiring them all (in
  // an order that exercises front, back and middle removal) empties it.
  std::vector<SatState> states;
  for (int i = 0; i < 5; ++i) {
    SatState s;
    s.ecef_km = geo::spherical_to_cartesian({30.0, 40.0 + 0.01 * i},
                                            geo::kEarthRadiusKm + 550.0);
    states.push_back(s);
  }
  VisIndex index;
  index.build(states, geo::deg2rad(10.0));
  const geo::GeoPoint cell{30.0, 40.0};
  ASSERT_EQ(oracle::vis_candidates(index, cell).size(), states.size());
  for (const std::uint32_t si : {0U, 4U, 2U, 1U}) index.retire(si);
  EXPECT_EQ(oracle::vis_candidates(index, cell),
            std::vector<std::uint32_t>{3});
  index.retire(3);
  EXPECT_TRUE(oracle::vis_candidates(index, cell).empty());
  index.build(states, geo::deg2rad(10.0));
  EXPECT_EQ(oracle::vis_candidates(index, cell),
            (std::vector<std::uint32_t>{0, 1, 2, 3, 4}));
}

TEST(VisIndex, BuildRestoresEveryRetiredSatellite) {
  const auto orbits = make_constellation(WalkerShell{53.0, 550.0, 24, 18, 5});
  std::vector<SatState> states;
  propagate_all(orbits, 777.0, states);
  VisIndex index;
  index.build(states, 0.3);
  for (std::uint32_t si = 0; si < states.size(); ++si) index.retire(si);
  EXPECT_TRUE(oracle::vis_candidates(index, {0.0, 0.0}).empty());
  // The next epoch's build sees every satellite again.
  propagate_all(orbits, 837.0, states);
  index.build(states, 0.3);
  std::vector<std::uint32_t> all;
  for (double lat = -87.5; lat < 90.0; lat += 5.0) {
    for (double lon = -177.5; lon < 180.0; lon += 5.0) {
      const auto candidates = oracle::vis_candidates(index, {lat, lon});
      all.insert(all.end(), candidates.begin(), candidates.end());
    }
  }
  std::sort(all.begin(), all.end());
  all.erase(std::unique(all.begin(), all.end()), all.end());
  EXPECT_EQ(all.size(), states.size());
}

// Every live satellite in window(cell, extra_deg), sorted: a scan at
// cos_psi = -inf keeps them all.
std::vector<std::uint32_t> window_candidates(const VisIndex& window_index,
                                             const VisIndex& scan_index,
                                             const geo::GeoPoint& cell,
                                             double extra_deg) {
  std::vector<BucketSpan> spans;
  window_index.window(cell, extra_deg, spans);
  std::vector<std::uint32_t> out(scan_index.sat_count());
  const geo::Vec3 cell_unit = geo::spherical_to_cartesian(cell, 1.0).unit();
  out.resize(scan_index
                 .scan(spans.data(), spans.size(), cell_unit,
                       -std::numeric_limits<double>::infinity(), out.data())
                 .visible);
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<geo::GeoPoint> edge_and_random_cells(std::uint64_t seed) {
  std::vector<geo::GeoPoint> cells{{90.0, 0.0},     {-90.0, 45.0},
                                   {89.9, 179.99},  {0.0, 180.0},
                                   {10.0, -179.99}, {-35.0, 179.5}};
  stats::Pcg32 rng(seed);
  for (int i = 0; i < 200; ++i) {
    cells.push_back({-90.0 + rng.next_double() * 180.0,
                     -180.0 + rng.next_double() * 360.0});
  }
  return cells;
}

TEST(VisIndex, WindowSpansStayInRangeAndNeverRepeatABucket) {
  // scan() writes at most sat_count() satellites only if no bucket
  // appears twice in one window, date-line wraps included.
  const auto states = shell_states({97.0, 550.0, 24, 18, 5}, 777.0);
  VisIndex index;
  index.build(states, 0.15);
  for (const geo::GeoPoint& cell : edge_and_random_cells(8)) {
    std::vector<BucketSpan> spans;
    index.window(cell, 0.0, spans);
    std::vector<std::uint32_t> buckets;
    for (const BucketSpan& span : spans) {
      ASSERT_GT(span.count, 0U);
      for (std::uint32_t b = span.first; b < span.first + span.count; ++b) {
        buckets.push_back(b);
      }
    }
    ASSERT_TRUE(std::all_of(buckets.begin(), buckets.end(),
                            [&index](std::uint32_t b) {
                              return b < index.bucket_count();
                            }));
    std::sort(buckets.begin(), buckets.end());
    EXPECT_EQ(std::adjacent_find(buckets.begin(), buckets.end()),
              buckets.end())
        << "a bucket repeats at " << cell.lat_deg << "," << cell.lon_deg;
  }
}

TEST(VisIndex, WindowsAtALargerAngleGatherSupersets) {
  // The scheduler reuses windows built at psi_b + kWindowSlackDeg for any
  // later index with the same layout and psi <= psi_b + kWindowSlackDeg:
  // those windows must hold a superset of that index's own query.
  const auto states = shell_states({97.0, 550.0, 24, 18, 5}, 321.0);
  const double psi_deg = 8.4585;
  VisIndex built;
  built.build(states, geo::deg2rad(psi_deg));
  VisIndex later;
  later.build(states, geo::deg2rad(psi_deg + kWindowSlackDeg));
  ASSERT_EQ(later.band_sectors(), built.band_sectors());
  ASSERT_LE(later.psi_deg(), built.psi_deg() + kWindowSlackDeg);
  for (const geo::GeoPoint& cell : edge_and_random_cells(9)) {
    const auto own = oracle::vis_candidates(later, cell);
    for (const double extra : {kWindowSlackDeg, 0.5, 3.0}) {
      const auto wide = window_candidates(built, later, cell, extra);
      EXPECT_TRUE(std::includes(wide.begin(), wide.end(), own.begin(),
                                own.end()))
          << cell.lat_deg << "," << cell.lon_deg << " extra " << extra;
    }
  }
}

TEST(VisIndex, NonFiniteAndOutOfRangePointsClampToTheGrid) {
  const auto states = shell_states({97.0, 550.0, 24, 18, 5}, 777.0);
  VisIndex index;
  index.build(states, 0.3);
  // A latitude beyond a pole clamps to that pole's band.
  EXPECT_EQ(oracle::vis_candidates(index, {1e300, 0.0}),
            oracle::vis_candidates(index, {90.0, 0.0}));
  EXPECT_EQ(oracle::vis_candidates(index, {-1e300, 0.0}),
            oracle::vis_candidates(index, {-90.0, 0.0}));
  ASSERT_NE(oracle::vis_candidates(index, {90.0, 0.0}),
            oracle::vis_candidates(index, {-90.0, 0.0}));
  // NaN and infinite coordinates land in some bucket rather than casting
  // an unrepresentable value (a float-cast-overflow report under UBSan).
  const double nan = std::nan("");
  const double inf = std::numeric_limits<double>::infinity();
  for (const geo::GeoPoint cell : {geo::GeoPoint{nan, 0.0},
                                   geo::GeoPoint{0.0, nan},
                                   geo::GeoPoint{nan, nan},
                                   geo::GeoPoint{inf, 0.0},
                                   geo::GeoPoint{10.0, -inf}}) {
    EXPECT_LE(oracle::vis_candidates(index, cell).size(), states.size());
  }
}

TEST(PropagateBatch, OutParamOverloadMatchesReturningOverload) {
  const auto orbits = make_constellation(WalkerShell{53.0, 550.0, 8, 6, 1});
  std::vector<SatState> reused;
  for (double t : {0.0, 93.5, 4711.0}) {
    propagate_all(orbits, t, reused);
    const auto fresh = propagate_all(orbits, t);
    ASSERT_EQ(reused.size(), fresh.size());
    for (std::size_t i = 0; i < fresh.size(); ++i) {
      EXPECT_EQ(reused[i].ecef_km.x, fresh[i].ecef_km.x);
      EXPECT_EQ(reused[i].ecef_km.y, fresh[i].ecef_km.y);
      EXPECT_EQ(reused[i].ecef_km.z, fresh[i].ecef_km.z);
      const geo::GeoPoint reused_sub =
          geo::cartesian_to_spherical(reused[i].ecef_km);
      const geo::GeoPoint fresh_sub =
          geo::cartesian_to_spherical(fresh[i].ecef_km);
      EXPECT_EQ(reused_sub.lat_deg, fresh_sub.lat_deg);
      EXPECT_EQ(reused_sub.lon_deg, fresh_sub.lon_deg);
    }
  }
}

}  // namespace
}  // namespace leodivide::orbit
