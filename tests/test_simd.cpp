// Golden suite for the SIMD kernels in orbit/kernels.cpp: the dispatching
// entry points must be bit-identical to the scalar references in
// tests/oracles on adversarial inputs — polar cells, date-line longitudes,
// grazing elevations that land exactly on the cos threshold, NaN lanes, and
// every tail-lane remainder around the compiled lane width. Also pins the
// consumers: propagate_all (batched rotation) against the per-satellite
// oracle::ecef_position, and the scheduler's SIMD visibility filter against
// the naive reference on threshold geometries.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
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

// SoA satellite unit-vector set plus a cell direction, the exact operand
// shape of the visibility kernels.
struct SoaDirs {
  std::vector<double> ux, uy, uz;
  std::vector<std::uint32_t> candidates;

  void push(const geo::Vec3& u) {
    candidates.push_back(static_cast<std::uint32_t>(ux.size()));
    ux.push_back(u.x);
    uy.push_back(u.y);
    uz.push_back(u.z);
  }
  [[nodiscard]] std::size_t size() const { return ux.size(); }
};

SoaDirs random_dirs(stats::Pcg32& rng, std::size_t n) {
  SoaDirs d;
  for (std::size_t i = 0; i < n; ++i) {
    const geo::GeoPoint p{-90.0 + rng.next_double() * 180.0,
                          -180.0 + rng.next_double() * 360.0};
    d.push(geo::spherical_to_cartesian(p, 1.0));
  }
  return d;
}

void expect_filter_matches_scalar(const SoaDirs& d, const geo::Vec3& cell,
                                  double cos_psi) {
  std::vector<std::uint32_t> simd_out(d.size() + 1, 0xdeadbeef);
  std::vector<std::uint32_t> scalar_out(d.size() + 1, 0xdeadbeef);
  const std::size_t simd_n = orbit::filter_visible(
      cell.x, cell.y, cell.z, d.ux.data(), d.uy.data(), d.uz.data(),
      d.candidates.data(), d.size(), cos_psi, simd_out.data());
  const std::size_t scalar_n = oracle::filter_visible_scalar(
      cell.x, cell.y, cell.z, d.ux.data(), d.uy.data(), d.uz.data(),
      d.candidates.data(), d.size(), cos_psi, scalar_out.data());
  ASSERT_EQ(simd_n, scalar_n);
  for (std::size_t i = 0; i < simd_n; ++i) {
    EXPECT_EQ(simd_out[i], scalar_out[i]) << "kept index " << i;
  }
}

TEST(SimdKernels, BackendIsCoherent) {
  const std::size_t lanes = orbit::kernel_lanes();
  EXPECT_TRUE(lanes == 1 || lanes == 2 || lanes == 4 || lanes == 8)
      << lanes;
  ASSERT_NE(orbit::kernel_backend(), nullptr);
  if (lanes == 1) EXPECT_STREQ(orbit::kernel_backend(), "scalar");
}

TEST(SimdKernels, FilterMatchesScalarOnEveryTailLength) {
  stats::Pcg32 rng(0x51D5u);
  const geo::Vec3 cell =
      geo::spherical_to_cartesian(geo::GeoPoint{40.0, -100.0}, 1.0);
  // Cover every remainder around the widest lane count (8) several times
  // over, plus larger sizes: n = 0..33, 63..65, 255..257.
  for (std::size_t n = 0; n <= 33; ++n) {
    const SoaDirs d = random_dirs(rng, n);
    expect_filter_matches_scalar(d, cell, 0.9);
  }
  for (const std::size_t n : {63U, 64U, 65U, 255U, 256U, 257U}) {
    const SoaDirs d = random_dirs(rng, n);
    expect_filter_matches_scalar(d, cell, 0.95);
  }
}

TEST(SimdKernels, GrazingExactlyAtThresholdIsKept) {
  // dot == cos_psi exactly: cell along +x, satellite at (cos_psi,
  // sin(acos cos_psi), 0) is approximate — instead build the product to be
  // exact: cell (1,0,0), satellite (cos_psi, 0, 0). 1.0 * cos_psi ==
  // cos_psi bit-for-bit, so >= must keep it in both implementations.
  const double cos_psi = 0.7193398003386512;  // arbitrary non-round value
  SoaDirs d;
  d.push({cos_psi, 0.0, 0.0});                                    // == keep
  d.push({std::nextafter(cos_psi, 0.0), 0.0, 0.0});               // < drop
  d.push({std::nextafter(cos_psi, 1.0), 0.0, 0.0});               // > keep
  d.push({cos_psi, 0.0, 0.0});  // tail-lane repeat of the exact case
  const geo::Vec3 cell{1.0, 0.0, 0.0};

  std::vector<std::uint32_t> out(d.size(), 0);
  const std::size_t kept = orbit::filter_visible(
      cell.x, cell.y, cell.z, d.ux.data(), d.uy.data(), d.uz.data(),
      d.candidates.data(), d.size(), cos_psi, out.data());
  ASSERT_EQ(kept, 3U);
  EXPECT_EQ(out[0], 0U);
  EXPECT_EQ(out[1], 2U);
  EXPECT_EQ(out[2], 3U);
  expect_filter_matches_scalar(d, cell, cos_psi);
}

TEST(SimdKernels, PolarAndDateLineDirections) {
  SoaDirs d;
  // Poles: unit z is exactly ±1, x and y exactly 0 for lat ±90 only if
  // the trig cancels — take whatever spherical_to_cartesian produces plus
  // the exact axis vectors.
  d.push(geo::spherical_to_cartesian(geo::GeoPoint{90.0, 0.0}, 1.0));
  d.push(geo::spherical_to_cartesian(geo::GeoPoint{-90.0, 135.0}, 1.0));
  d.push({0.0, 0.0, 1.0});
  d.push({0.0, 0.0, -1.0});
  // Date line: ±180 degrees map to the same meridian with opposite-signed
  // longitude sines — adversarial for any sign-sensitive compare.
  d.push(geo::spherical_to_cartesian(geo::GeoPoint{10.0, 180.0}, 1.0));
  d.push(geo::spherical_to_cartesian(geo::GeoPoint{10.0, -180.0}, 1.0));
  d.push(geo::spherical_to_cartesian(geo::GeoPoint{-10.0, 179.999999}, 1.0));

  for (const geo::GeoPoint cell_pt :
       {geo::GeoPoint{89.0, 45.0}, geo::GeoPoint{-89.0, -45.0},
        geo::GeoPoint{0.0, 180.0}, geo::GeoPoint{0.0, 0.0}}) {
    const geo::Vec3 cell = geo::spherical_to_cartesian(cell_pt, 1.0);
    for (const double cos_psi : {-1.0, 0.0, 0.5, 0.99, 1.0}) {
      expect_filter_matches_scalar(d, cell, cos_psi);
    }
  }
}

TEST(SimdKernels, NanLanesBehaveLikeScalar) {
  // A NaN dot product fails >= in IEEE; vector compares must agree.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  SoaDirs d;
  d.push({nan, 0.0, 0.0});
  d.push({0.9, 0.1, 0.0});
  d.push({0.0, nan, nan});
  d.push({1.0, 0.0, 0.0});
  d.push({nan, nan, nan});
  expect_filter_matches_scalar(d, {1.0, 0.0, 0.0}, 0.5);
  std::vector<std::uint32_t> out(d.size(), 0xdeadbeef);
  const std::size_t kept = orbit::filter_visible(
      1.0, 0.0, 0.0, d.ux.data(), d.uy.data(), d.uz.data(),
      d.candidates.data(), d.size(), 0.5, out.data());
  // NaN never passes: exactly the two finite lanes 1 and 3 survive.
  ASSERT_EQ(kept, 2U);
  EXPECT_EQ(out[0], 1U);
  EXPECT_EQ(out[1], 3U);
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

// End-to-end: the scheduler's SIMD filter_visible path must keep schedule
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
