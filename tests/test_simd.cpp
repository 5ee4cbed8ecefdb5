// Golden suite for the SIMD kernel in orbit/kernels.cpp: the dispatching
// entry point must be bit-identical to the scalar reference in
// tests/oracles on every tail-lane remainder around the compiled lane width
// and in place. Also pins the consumers: propagate_all (batched rotation)
// against the per-satellite oracle::ecef_position, and the scheduler's
// visibility test against the naive reference on threshold geometries.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "leodivide/geo/angle.hpp"
#include "leodivide/geo/ecef.hpp"
#include "leodivide/orbit/kernels.hpp"
#include "leodivide/orbit/propagate.hpp"
#include "leodivide/orbit/walker.hpp"
#include "leodivide/sim/scheduler.hpp"
#include "leodivide/stats/rng.hpp"
#include "oracles/oracles.hpp"

namespace leodivide {
namespace {

TEST(SimdKernels, BackendIsCoherent) {
  const std::size_t lanes = orbit::kernel_lanes();
  EXPECT_TRUE(lanes == 1 || lanes == 2 || lanes == 4 || lanes == 8)
      << lanes;
  ASSERT_NE(orbit::kernel_backend(), nullptr);
  if (lanes == 1) EXPECT_STREQ(orbit::kernel_backend(), "scalar");
}

TEST(SimdKernels, RotateMatchesScalarBitForBit) {
  stats::Pcg32 rng(0x707A7Eu);
  for (const std::size_t n : {0U, 1U, 3U, 4U, 5U, 7U, 8U, 9U, 31U, 100U}) {
    std::vector<double> x(n), y(n);
    for (std::size_t i = 0; i < n; ++i) {
      x[i] = -7000.0 + rng.next_double() * 14000.0;
      y[i] = -7000.0 + rng.next_double() * 14000.0;
    }
    for (const double theta : {0.0, 1e-9, 0.5, 3.14159, -2.0, 12345.678}) {
      const double c = std::cos(theta);
      const double s = std::sin(theta);
      std::vector<double> sx(n), sy(n), vx(n), vy(n);
      oracle::rotate_about_z_scalar(x.data(), y.data(), c, s, n, sx.data(),
                                    sy.data());
      orbit::rotate_about_z(x.data(), y.data(), c, s, n, vx.data(),
                            vy.data());
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(vx[i]),
                  std::bit_cast<std::uint64_t>(sx[i]));
        EXPECT_EQ(std::bit_cast<std::uint64_t>(vy[i]),
                  std::bit_cast<std::uint64_t>(sy[i]));
      }
      // In-place operation: both inputs load before either store.
      std::vector<double> ix = x, iy = y;
      orbit::rotate_about_z(ix.data(), iy.data(), c, s, n, ix.data(),
                            iy.data());
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(ix[i]),
                  std::bit_cast<std::uint64_t>(sx[i]));
        EXPECT_EQ(std::bit_cast<std::uint64_t>(iy[i]),
                  std::bit_cast<std::uint64_t>(sy[i]));
      }
    }
  }
}

// propagate_all routes every epoch rotation through the SIMD kernel; it
// must stay bit-identical to the per-satellite scalar path.
TEST(SimdKernels, PropagateAllMatchesPerSatelliteScalar) {
  orbit::WalkerShell shell = orbit::starlink_shell1();
  shell.planes = 12;
  shell.sats_per_plane = 11;  // 132 sats: not a multiple of 4 or 8
  const std::vector<orbit::CircularOrbit> orbits =
      orbit::make_constellation(shell);
  for (const double t_s : {0.0, 17.3, 5400.0, 86400.0 + 0.125}) {
    const std::vector<orbit::SatState> batch =
        orbit::propagate_all(orbits, t_s);
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
      EXPECT_EQ(std::bit_cast<std::uint64_t>(batch[i].subpoint.lat_deg),
                std::bit_cast<std::uint64_t>(sub.lat_deg));
      EXPECT_EQ(std::bit_cast<std::uint64_t>(batch[i].subpoint.lon_deg),
                std::bit_cast<std::uint64_t>(sub.lon_deg));
    }
  }
}

// End-to-end: the scheduler's fused visibility scan must keep schedules
// byte-identical to schedule_reference on geometries built to graze the
// elevation mask (satellites right at the visibility cone's edge).
TEST(SimdKernels, SchedulerBitIdenticalOnGrazingGeometry) {
  std::vector<sim::SchedCell> cells;
  for (const geo::GeoPoint p :
       {geo::GeoPoint{89.5, 10.0}, geo::GeoPoint{-89.5, -170.0},
        geo::GeoPoint{0.0, 180.0}, geo::GeoPoint{0.0, -180.0},
        geo::GeoPoint{45.0, 0.0}}) {
    sim::SchedCell c;
    c.center = p;
    c.ecef_km = geo::spherical_to_cartesian(p, geo::kEarthRadiusKm);
    c.locations = 500;
    c.beams_needed = 2;
    cells.push_back(c);
  }
  sim::SchedulerConfig config;
  config.min_elevation_deg = 25.0;

  std::vector<orbit::SatState> sats;
  // A ring of satellites at small angular offsets from each cell, spanning
  // both sides of the visibility cone boundary for the configured mask.
  for (const sim::SchedCell& c : cells) {
    for (const double off_deg : {0.0, 5.0, 10.0, 14.9, 15.0, 15.1, 20.0}) {
      orbit::SatState s;
      s.subpoint = {c.center.lat_deg > 74.0 ? c.center.lat_deg - off_deg
                                            : c.center.lat_deg + off_deg,
                    c.center.lon_deg};
      s.ecef_km = geo::spherical_to_cartesian(s.subpoint,
                                              geo::kEarthRadiusKm + 550.0);
      sats.push_back(s);
    }
  }

  for (const sim::Strategy strategy :
       {sim::Strategy::kMostSlack, sim::Strategy::kFirstFit,
        sim::Strategy::kBestFit}) {
    config.strategy = strategy;
    const sim::BeamScheduler scheduler(cells, config);
    const sim::ScheduleResult indexed = scheduler.schedule(sats);
    const sim::ScheduleResult naive =
        oracle::schedule_reference(scheduler, sats);
    EXPECT_TRUE(indexed == naive);
  }
}

}  // namespace
}  // namespace leodivide
