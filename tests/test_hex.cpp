// Unit and property tests for leodivide::hex (the H3-style spatial index).

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <tuple>
#include <unordered_set>
#include <utility>
#include <vector>

#include "leodivide/geo/angle.hpp"
#include "leodivide/geo/greatcircle.hpp"
#include "leodivide/geo/us_outline.hpp"
#include "leodivide/hex/cellid.hpp"
#include "leodivide/hex/hexcoord.hpp"
#include "leodivide/hex/hexgrid.hpp"
#include "leodivide/hex/polyfill.hpp"
#include "leodivide/runtime/executor.hpp"
#include "leodivide/runtime/thread_pool.hpp"
#include "leodivide/stats/rng.hpp"
#include "oracles/oracles.hpp"

namespace leodivide::hex {
namespace {

// --------------------------------------------------------------- hexcoord ----

TEST(HexCoordTest, CubeInvariant) {
  const HexCoord h{3, -5};
  EXPECT_EQ(h.q + h.r + h.s(), 0);
}

TEST(HexCoordTest, RoundingIsIdempotentOnIntegers) {
  for (int q = -3; q <= 3; ++q) {
    for (int r = -3; r <= 3; ++r) {
      const HexCoord h{q, r};
      EXPECT_EQ(hex_round({static_cast<double>(q), static_cast<double>(r)}),
                h);
    }
  }
}

// ----------------------------------------------------------------- cellid ----

TEST(CellIdTest, PackUnpackRoundTrip) {
  for (int res : {0, 5, 15}) {
    for (const HexCoord h : {HexCoord{0, 0}, HexCoord{123, -456},
                             HexCoord{-100000, 99999}}) {
      const CellId id(res, h);
      EXPECT_EQ(id.resolution(), res);
      EXPECT_EQ(id.coord(), h);
    }
  }
}

TEST(CellIdTest, BitsRoundTrip) {
  const CellId id(5, {42, -17});
  EXPECT_EQ(CellId::from_bits(id.bits()), id);
}

TEST(CellIdTest, InvalidIsDistinct) {
  const CellId invalid = CellId::invalid();
  EXPECT_FALSE(invalid.valid());
  EXPECT_EQ(invalid.resolution(), -1);
  EXPECT_NE(invalid, CellId(0, {0, 0}));
}

TEST(CellIdTest, RejectsOutOfRange) {
  EXPECT_THROW(CellId(16, {0, 0}), std::out_of_range);
  EXPECT_THROW(CellId(-1, {0, 0}), std::out_of_range);
  EXPECT_THROW(CellId(5, {1 << 29, 0}), std::out_of_range);
}

TEST(CellIdTest, FromBitsPreservesInvalid) {
  EXPECT_FALSE(CellId::from_bits(CellId::invalid().bits()).valid());
}

TEST(CellIdTest, HashSpreads) {
  std::unordered_set<std::size_t> hashes;
  std::hash<CellId> hasher;
  for (int q = 0; q < 50; ++q) {
    for (int r = 0; r < 50; ++r) hashes.insert(hasher(CellId(5, {q, r})));
  }
  EXPECT_EQ(hashes.size(), 2500U);  // no collisions on a small grid
}

TEST(CellIdTest, OrderingIsTotal) {
  const CellId a(5, {0, 0}), b(5, {0, 1});
  EXPECT_TRUE(a < b || b < a);
}

// ---------------------------------------------------------------- hexgrid ----

TEST(HexGridTest, ResolutionLadderAreas) {
  // Aperture 4: each resolution quarters the area.
  for (int res = 1; res <= 15; ++res) {
    EXPECT_NEAR(cell_area_km2(res - 1) / cell_area_km2(res), 4.0, 1e-9);
  }
}

TEST(HexGridTest, Res5AreaMatchesH3) {
  EXPECT_NEAR(cell_area_km2(5), kH3Res5AreaKm2, 1e-6);
}

TEST(HexGridTest, RejectsBadResolution) {
  EXPECT_THROW((void)edge_length_km(-1), std::out_of_range);
  EXPECT_THROW((void)edge_length_km(16), std::out_of_range);
}

TEST(HexGridTest, CellOfCenterRoundTrip) {
  const HexGrid grid;
  for (const geo::GeoPoint p :
       {geo::GeoPoint{39.5, -98.35}, geo::GeoPoint{36.4, -89.7},
        geo::GeoPoint{45.0, -110.0}, geo::GeoPoint{30.0, -85.0}}) {
    const CellId id = grid.cell_of(p, 5);
    const geo::GeoPoint center = grid.center_of(id);
    EXPECT_EQ(grid.cell_of(center, 5), id);
  }
}

TEST(HexGridTest, PointIsNearItsCellCenter) {
  const HexGrid grid;
  const geo::GeoPoint p{41.3, -105.6};
  const CellId id = grid.cell_of(p, 5);
  // A point is within the circumradius (= edge length) of its cell center.
  EXPECT_LE(geo::distance_km(p, grid.center_of(id)),
            edge_length_km(5) * 1.001);
}

TEST(HexGridTest, DistinctPointsFarApartGetDistinctCells) {
  const HexGrid grid;
  EXPECT_NE(grid.cell_of({39.0, -98.0}, 5), grid.cell_of({40.0, -98.0}, 5));
}

TEST(HexGridTest, BoundaryHasSixVerticesAroundCenter) {
  const HexGrid grid;
  const CellId id = grid.cell_of({36.4, -89.7}, 5);
  const auto boundary = grid.boundary_of(id);
  const geo::GeoPoint center = grid.center_of(id);
  for (const auto& v : boundary) {
    EXPECT_NEAR(geo::distance_km(center, v), edge_length_km(5), 0.05);
  }
}

TEST(HexGridTest, BoundaryMatchesPerCallTrigBitForBit) {
  // boundary_of reads its corner (cos, sin) factors from a table; each
  // vertex must equal the per-call expression it replaced, bit for bit:
  // the cell centre in the plane, plus the edge length times cos/sin of
  // 30 + 60*k degrees, projected back.
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  stats::Pcg32 rng(20261020);
  for (const geo::GeoPoint& projection_center :
       {geo::GeoPoint{39.5, -98.35}, geo::GeoPoint{-12.0, 140.0}}) {
    const HexGrid grid(projection_center);
    for (int res = 3; res <= 6; ++res) {
      const double a = edge_length_km(res);
      for (int i = 0; i < 2000; ++i) {
        const geo::GeoPoint p{
            oracle::sample_uniform(rng, projection_center.lat_deg - 20.0,
                                   projection_center.lat_deg + 20.0),
            oracle::sample_uniform(rng, projection_center.lon_deg - 30.0,
                                   projection_center.lon_deg + 30.0)};
        const CellId id = grid.cell_of(p, res);
        const auto q = static_cast<double>(id.coord().q);
        const auto r = static_cast<double>(id.coord().r);
        const geo::PlanePoint c{a * 1.7320508075688772 * (q + r / 2.0),
                                a * 1.5 * r};
        const auto boundary = grid.boundary_of(id);
        for (int k = 0; k < 6; ++k) {
          const double ang = geo::deg2rad(60.0 * k + 30.0);
          const geo::GeoPoint want = grid.projection().inverse(
              {c.x + a * std::cos(ang), c.y + a * std::sin(ang)});
          const geo::GeoPoint& got = boundary[static_cast<std::size_t>(k)];
          ASSERT_EQ(bits(got.lat_deg), bits(want.lat_deg))
              << "res " << res << " cell " << id.to_string() << " k " << k;
          ASSERT_EQ(bits(got.lon_deg), bits(want.lon_deg))
              << "res " << res << " cell " << id.to_string() << " k " << k;
        }
      }
    }
  }
}

TEST(HexGridTest, ParentContainsChildCenter) {
  const HexGrid grid;
  const CellId child = grid.cell_of({38.0, -100.0}, 6);
  const CellId parent = grid.parent_of(child, 5);
  EXPECT_EQ(grid.cell_of(grid.center_of(child), 5), parent);
  EXPECT_EQ(parent.resolution(), 5);
}

TEST(HexGridTest, ParentRejectsFinerTarget) {
  const HexGrid grid;
  const CellId id = grid.cell_of({38.0, -100.0}, 5);
  EXPECT_THROW((void)grid.parent_of(id, 5), std::invalid_argument);
  EXPECT_THROW((void)grid.parent_of(id, 7), std::invalid_argument);
}

// --------------------------------------------------------------- polyfill ----

// The lat/lon box [lat_lo, lat_hi] x [lon_lo, lon_hi] as a polygon.
geo::Polygon box_polygon(double lat_lo, double lat_hi, double lon_lo,
                         double lon_hi) {
  return geo::Polygon(
      {{lat_lo, lon_lo}, {lat_hi, lon_lo}, {lat_hi, lon_hi}, {lat_lo, lon_hi}});
}

TEST(Polyfill, BoxFillCountMatchesArea) {
  const HexGrid grid;
  const geo::Polygon box = box_polygon(38.0, 40.0, -100.0, -97.0);
  const auto cells = polyfill(grid, box, 5, runtime::global_executor()).cells;
  const double expected = box.area_km2() / cell_area_km2(5);
  EXPECT_NEAR(static_cast<double>(cells.size()), expected, expected * 0.05);
  for (const CellId id : cells) {
    EXPECT_TRUE(box.contains(grid.center_of(id)));
  }
}

TEST(Polyfill, CellsAreUnique) {
  const HexGrid grid;
  const auto cells =
      polyfill(grid, box_polygon(39.0, 40.0, -99.0, -98.0), 5,
               runtime::global_executor())
          .cells;
  const std::set<CellId> unique(cells.begin(), cells.end());
  EXPECT_EQ(unique.size(), cells.size());
}

TEST(Polyfill, FinerResolutionYieldsMoreCells) {
  const HexGrid grid;
  const geo::Polygon box = box_polygon(39.0, 40.0, -99.0, -98.0);
  const auto coarse = polyfill(grid, box, 4, runtime::global_executor()).cells;
  const auto fine = polyfill(grid, box, 5, runtime::global_executor()).cells;
  EXPECT_GT(fine.size(), coarse.size() * 3);
  EXPECT_LT(fine.size(), coarse.size() * 5);
}

TEST(Polyfill, ConusFillIsContinentScale) {
  const HexGrid grid;
  const auto cells =
      polyfill(grid, geo::conus_outline(), 5, runtime::global_executor())
          .cells;
  const double expected = geo::conus_area_km2() / cell_area_km2(5);
  EXPECT_NEAR(static_cast<double>(cells.size()), expected, expected * 0.03);
}

TEST(Polyfill, PolygonFillRespectsBoundary) {
  const HexGrid grid;
  const geo::Polygon triangle(
      {{38.0, -100.0}, {40.0, -100.0}, {39.0, -97.0}});
  const auto cells =
      polyfill(grid, triangle, 5, runtime::global_executor()).cells;
  EXPECT_GT(cells.size(), 10U);
  for (const CellId id : cells) {
    EXPECT_TRUE(triangle.contains(grid.center_of(id)));
  }
}

// Callers read a polyfill's centres instead of projecting again, so each
// must be bit-equal to center_of, and the cells must come in strictly
// increasing (q, r) order for the generator's binary search.
TEST(Polyfill, CentersAreCenterOfBitsInQrOrder) {
  const HexGrid grid;
  for (const int res : {4, 5, 6}) {
    SCOPED_TRACE(res);
    const PolyfillCells fill = polyfill(
        grid, geo::conus_outline(), res, runtime::global_executor());
    ASSERT_EQ(fill.centers.size(), fill.cells.size());
    for (std::size_t i = 0; i < fill.cells.size(); ++i) {
      const geo::GeoPoint c = grid.center_of(fill.cells[i]);
      ASSERT_EQ(std::bit_cast<std::uint64_t>(fill.centers[i].lat_deg),
                std::bit_cast<std::uint64_t>(c.lat_deg));
      ASSERT_EQ(std::bit_cast<std::uint64_t>(fill.centers[i].lon_deg),
                std::bit_cast<std::uint64_t>(c.lon_deg));
      if (i > 0) {
        const HexCoord a = fill.cells[i - 1].coord();
        const HexCoord b = fill.cells[i].coord();
        ASSERT_TRUE(a.q < b.q || (a.q == b.q && a.r < b.r)) << i;
      }
    }
  }
}

// The block classifier drops or keeps whole blocks without per-cell work,
// so it must equal the per-cell scan exactly, centres bit for bit, at 1 and
// 4 threads: on CONUS, on seeded star and histogram polygons, and on the
// shapes where a block must fall back (smaller than a block, across
// +-180, next to a pole, horizontal edges, a non-finite vertex).
TEST(Polyfill, BlockScanMatchesPerCellReference) {
  runtime::ThreadPool pool(4);
  std::size_t kept = 0;
  const auto expect_same = [&pool, &kept](const HexGrid& grid,
                                          const geo::Polygon& poly, int res) {
    const PolyfillCells want = oracle::polyfill_reference(
        grid, poly, res, runtime::serial_executor());
    kept = want.cells.size();
    for (runtime::Executor* ex :
         {&runtime::serial_executor(), static_cast<runtime::Executor*>(&pool)}) {
      const PolyfillCells got = polyfill(grid, poly, res, *ex);
      ASSERT_EQ(got.cells, want.cells) << "threads " << ex->concurrency();
      ASSERT_EQ(got.centers.size(), want.centers.size());
      for (std::size_t i = 0; i < got.centers.size(); ++i) {
        ASSERT_EQ(std::bit_cast<std::uint64_t>(got.centers[i].lat_deg),
                  std::bit_cast<std::uint64_t>(want.centers[i].lat_deg));
        ASSERT_EQ(std::bit_cast<std::uint64_t>(got.centers[i].lon_deg),
                  std::bit_cast<std::uint64_t>(want.centers[i].lon_deg));
      }
    }
  };
  const HexGrid conus_grid;
  for (const int res : {3, 4, 5, 6}) {
    SCOPED_TRACE(::testing::Message() << "CONUS at resolution " << res);
    expect_same(conus_grid, geo::conus_outline(), res);
    EXPECT_GT(kept, 0U);
  }

  stats::Pcg32 rng(20240611, /*stream=*/5);
  for (int round = 0; round < 200; ++round) {
    const int family = round % 3;
    std::vector<geo::GeoPoint> vertices =
        family == 0   ? oracle::random_star(rng, 0.0)
        : family == 1 ? oracle::random_star(rng, 0.5)
                      : oracle::random_histogram(rng);
    // Every fourth polygon moves 35 deg poleward, where a block's
    // longitude span is widest.
    if (round % 4 == 3) {
      for (geo::GeoPoint& v : vertices) {
        v.lat_deg += vertices.front().lat_deg < 0.0 ? -35.0 : 35.0;
      }
    }
    const geo::Polygon poly(std::move(vertices));
    const geo::BoundingBox& box = poly.bbox();
    // Every other polygon sits 10 deg off its grid's centre, where the
    // projection bends the blocks' images.
    const double off = round % 2 == 0 ? 0.0 : 10.0;
    const HexGrid grid({(box.lat_min + box.lat_max) / 2 + off,
                        (box.lon_min + box.lon_max) / 2 - off});
    SCOPED_TRACE(::testing::Message() << "round " << round);
    expect_same(grid, poly, family == 2 ? 5 : 4);
  }

  const double nan = std::numeric_limits<double>::quiet_NaN();
  const struct {
    const char* what;
    geo::GeoPoint grid_center;
    std::vector<geo::GeoPoint> vertices;
    int res;
  } kShapes[] = {
      {"smaller than a block", {39.5, -98.35},
       {{39.0, -99.0}, {39.3, -99.0}, {39.1, -98.6}}, 5},
      {"smaller than a cell", {39.5, -98.35},
       {{39.0, -99.0}, {39.01, -99.0}, {39.0, -98.99}}, 5},
      {"across +180", {10.0, 180.0},
       {{8.0, 177.0}, {12.0, 177.5}, {12.5, 182.0}, {7.5, 183.0}}, 5},
      {"across -180", {-10.0, -179.0},
       {{-12.0, -183.0}, {-8.0, -182.5}, {-7.5, -177.0}, {-12.5, -176.0}}, 5},
      {"up to +180", {0.0, 175.0},
       {{-3.0, 170.0}, {3.0, 170.0}, {3.0, 180.0}, {-3.0, 180.0}}, 5},
      {"from -180", {20.0, -178.0},
       {{17.0, -180.0}, {23.0, -180.0}, {22.0, -174.0}, {18.0, -175.0}}, 5},
      {"next to the north pole", {88.0, 0.0},
       {{86.0, -40.0}, {89.95, -20.0}, {89.95, 20.0}, {86.0, 40.0}}, 5},
      {"around the south pole", {-89.0, 30.0},
       {{-89.99, -170.0}, {-87.0, -170.0}, {-87.0, 170.0}, {-89.99, 170.0}},
       4},
      {"horizontal edges", {39.5, -98.35},
       {{38.0, -100.0}, {40.0, -100.0}, {40.0, -97.0}, {38.0, -97.0}}, 6},
      {"a NaN vertex", {39.5, -98.35},
       {{38.0, -100.0}, {40.0, -100.0}, {nan, -98.5}, {40.0, -97.0},
        {38.0, -97.0}}, 5},
  };
  for (const auto& shape : kShapes) {
    SCOPED_TRACE(shape.what);
    expect_same(HexGrid(shape.grid_center), geo::Polygon(shape.vertices),
                shape.res);
  }
}

// ----------------------------------------------- parameterized round trips ----

class CellRoundTrip
    : public ::testing::TestWithParam<std::tuple<double, double, int>> {};

TEST_P(CellRoundTrip, CenterMapsBackToSameCell) {
  const auto [lat, lon, res] = GetParam();
  const HexGrid grid;
  const CellId id = grid.cell_of({lat, lon}, res);
  EXPECT_EQ(grid.cell_of(grid.center_of(id), res), id);
}

INSTANTIATE_TEST_SUITE_P(
    ConusSweep, CellRoundTrip,
    ::testing::Combine(::testing::Values(26.0, 33.0, 39.5, 45.0, 48.5),
                       ::testing::Values(-120.0, -105.0, -98.35, -85.0, -70.0),
                       ::testing::Values(3, 5, 7)));

}  // namespace
}  // namespace leodivide::hex
