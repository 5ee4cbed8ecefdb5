// Unit and property tests for leodivide::geo.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "leodivide/geo/angle.hpp"
#include "leodivide/geo/bbox.hpp"
#include "leodivide/geo/ecef.hpp"
#include "leodivide/geo/geopoint.hpp"
#include "leodivide/geo/greatcircle.hpp"
#include "leodivide/geo/polygon.hpp"
#include "leodivide/geo/projection.hpp"
#include "leodivide/geo/us_outline.hpp"
#include "leodivide/stats/rng.hpp"
#include "oracles/oracles.hpp"

namespace leodivide::geo {
namespace {

// Equal within eps_deg on both axes, longitude compared modulo 360.
bool approx_equal(const GeoPoint& a, const GeoPoint& b, double eps_deg) {
  const double dlon = std::abs(a.lon_deg - b.lon_deg);
  return std::abs(a.lat_deg - b.lat_deg) <= eps_deg &&
         std::min(dlon, 360.0 - dlon) <= eps_deg;
}

// ------------------------------------------------------------------ angle ----

TEST(Angle, Deg2RadRoundTrip) {
  for (double d : {-180.0, -90.0, 0.0, 45.0, 180.0, 359.0}) {
    EXPECT_NEAR(rad2deg(deg2rad(d)), d, 1e-12);
  }
}

TEST(Angle, WrapLongitude) {
  EXPECT_DOUBLE_EQ(wrap_longitude_deg(190.0), -170.0);
  EXPECT_DOUBLE_EQ(wrap_longitude_deg(-181.0), 179.0);
  EXPECT_DOUBLE_EQ(wrap_longitude_deg(180.0), 180.0);
  EXPECT_DOUBLE_EQ(wrap_longitude_deg(540.0), 180.0);
}

TEST(Angle, ClampLatitude) {
  EXPECT_DOUBLE_EQ(clamp_latitude_deg(95.0), 90.0);
  EXPECT_DOUBLE_EQ(clamp_latitude_deg(-95.0), -90.0);
  EXPECT_DOUBLE_EQ(clamp_latitude_deg(45.0), 45.0);
}

// --------------------------------------------------------------- geopoint ----

TEST(GeoPointTest, NormalizedCanonicalizes) {
  const GeoPoint p = GeoPoint{95.0, 190.0}.normalized();
  EXPECT_DOUBLE_EQ(p.lat_deg, 90.0);
  EXPECT_DOUBLE_EQ(p.lon_deg, -170.0);
  EXPECT_TRUE(p.valid());
}

// ------------------------------------------------------------------- ecef ----

TEST(Vec3Test, BasicAlgebra) {
  const Vec3 a{1, 2, 3}, b{4, 5, 6};
  EXPECT_DOUBLE_EQ(a.dot(b), 32.0);
  EXPECT_DOUBLE_EQ((Vec3{3, 4, 0}).norm(), 5.0);
}

TEST(Vec3Test, UnitVectorThrowsOnZero) {
  EXPECT_THROW((void)(Vec3{0, 0, 0}).unit(), std::domain_error);
  const Vec3 u = Vec3{0, 0, 9}.unit();
  EXPECT_NEAR(u.norm(), 1.0, 1e-12);
}

TEST(Ecef, SphericalRoundTrip) {
  for (const GeoPoint p : {GeoPoint{12.0, 34.0}, GeoPoint{-45.0, -120.0}}) {
    const GeoPoint back =
        cartesian_to_spherical(spherical_to_cartesian(p, kEarthRadiusKm));
    EXPECT_TRUE(approx_equal(p, back, 1e-9));
  }
}

TEST(Ecef, SphericalZeroVectorThrows) {
  EXPECT_THROW((void)cartesian_to_spherical({0, 0, 0}), std::domain_error);
}

// ------------------------------------------------------------ greatcircle ----

TEST(GreatCircle, KnownDistanceSfoToJfk) {
  // SFO (37.6188, -122.3756) to JFK (40.6413, -73.7781): ~4150 km.
  const double d =
      distance_km({37.6188, -122.3756}, {40.6413, -73.7781});
  EXPECT_NEAR(d, 4150.0, 25.0);
}

TEST(GreatCircle, DistanceIsSymmetricAndZeroOnSelf) {
  const GeoPoint a{10.0, 20.0}, b{-30.0, 140.0};
  EXPECT_DOUBLE_EQ(distance_km(a, b), distance_km(b, a));
  EXPECT_DOUBLE_EQ(distance_km(a, a), 0.0);
}

TEST(GreatCircle, AntipodalDistanceIsHalfCircumference) {
  const double d = distance_km({0.0, 0.0}, {0.0, 180.0});
  EXPECT_NEAR(d, kPi * kEarthRadiusKm, 1e-6);
}

TEST(GreatCircle, LatitudeBandFractions) {
  EXPECT_NEAR(latitude_band_fraction(-90.0, 90.0), 1.0, 1e-12);
  EXPECT_NEAR(latitude_band_fraction(0.0, 90.0), 0.5, 1e-12);
  EXPECT_NEAR(latitude_band_fraction(-30.0, 30.0), 0.5, 1e-12);
  EXPECT_THROW((void)latitude_band_fraction(10.0, 0.0), std::invalid_argument);
}

// ------------------------------------------------------------------- bbox ----

TEST(BBox, Contains) {
  const BoundingBox b{10.0, 20.0, -50.0, -40.0};
  EXPECT_TRUE(b.contains({15.0, -45.0}));
  EXPECT_FALSE(b.contains({25.0, -45.0}));
  EXPECT_FALSE(b.contains({15.0, -55.0}));
}

TEST(BBox, ExtendGrowsFromEmpty) {
  BoundingBox b = BoundingBox::empty();
  EXPECT_FALSE(b.valid());
  b.extend({10.0, 20.0});
  EXPECT_TRUE(b.valid());
  EXPECT_TRUE(b.contains({10.0, 20.0}));
  b.extend({-5.0, 30.0});
  EXPECT_TRUE(b.contains({0.0, 25.0}));
}

TEST(BBox, ExtendKeepsVerticesPastTheDateLine) {
  // A box whose first points lie past lon -180 is not valid() but not empty
  // either: later points must extend it, not restart it.
  BoundingBox b = BoundingBox::empty();
  for (const GeoPoint v : {GeoPoint{-12.0, -183.0}, GeoPoint{-8.0, -182.5},
                           GeoPoint{-7.5, -177.0}, GeoPoint{-12.5, -176.0}}) {
    b.extend(v);
  }
  EXPECT_EQ(b, (BoundingBox{-12.5, -7.5, -183.0, -176.0}));
  const Polygon quad({{-12.0, -183.0}, {-8.0, -182.5}, {-7.5, -177.0},
                      {-12.5, -176.0}});
  EXPECT_EQ(quad.bbox(), b);
  EXPECT_TRUE(quad.contains({-11.195, -177.668}));
  EXPECT_TRUE(quad.contains({-10.0, -180.5}));
}

TEST(BBox, ExtendSkipsNanPoints) {
  BoundingBox b = BoundingBox::empty();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  b.extend({nan, nan});
  b.extend({1.0, 2.0});
  EXPECT_EQ(b, (BoundingBox{1.0, 1.0, 2.0, 2.0}));
  b.extend({nan, 5.0});
  b.extend({3.0, 4.0});
  EXPECT_EQ(b, (BoundingBox{1.0, 3.0, 2.0, 5.0}));
}

TEST(BBox, ConusContainsLandmarks) {
  const BoundingBox b = conus_bbox();
  EXPECT_TRUE(b.contains({39.74, -104.99}));  // Denver
  EXPECT_TRUE(b.contains({25.76, -80.19}));   // Miami
  EXPECT_FALSE(b.contains({61.2, -149.9}));   // Anchorage
}

// ---------------------------------------------------------------- polygon ----

TEST(PolygonTest, SquareContainment) {
  const Polygon square({{0, 0}, {0, 10}, {10, 10}, {10, 0}});
  EXPECT_TRUE(square.contains({5.0, 5.0}));
  EXPECT_FALSE(square.contains({15.0, 5.0}));
  EXPECT_FALSE(square.contains({-1.0, 5.0}));
}

TEST(PolygonTest, ConcavePolygon) {
  // A "U" shape: the notch is outside.
  const Polygon u({{0, 0}, {0, 10}, {4, 10}, {4, 4}, {6, 4}, {6, 10},
                   {10, 10}, {10, 0}});
  EXPECT_TRUE(u.contains({2.0, 2.0}));
  EXPECT_TRUE(u.contains({5.0, 2.0}));
  EXPECT_FALSE(u.contains({5.0, 8.0}));  // inside the notch
}

TEST(PolygonTest, RejectsDegenerate) {
  EXPECT_THROW(Polygon({{0, 0}, {1, 1}}), std::invalid_argument);
}

TEST(PolygonTest, AreaOfOneDegreeSquareAtEquator) {
  const Polygon square({{-0.5, -0.5}, {-0.5, 0.5}, {0.5, 0.5}, {0.5, -0.5}});
  const double km_per_deg = kTwoPi * kEarthRadiusKm / 360.0;
  EXPECT_NEAR(square.area_km2(), km_per_deg * km_per_deg, 25.0);
}

// Query points that exercise the slab index's edges: on every vertex
// latitude (at the vertex, and across the box), on and near every edge,
// outside the box, NaN, and uniform in the box.
std::vector<GeoPoint> probe_points(stats::Pcg32& rng, const Polygon& poly) {
  const BoundingBox& box = poly.bbox();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const auto lon_in_box = [&] {
    return oracle::sample_uniform(rng, box.lon_min, box.lon_max);
  };
  std::vector<GeoPoint> q{{nan, lon_in_box()},
                          {box.lat_min, nan},
                          {nan, nan},
                          {box.lat_min - 1.0, lon_in_box()},
                          {box.lat_max + 1.0, lon_in_box()},
                          {box.lat_max, box.lon_max + 1.0},
                          {box.lat_min, box.lon_min - 1.0},
                          {box.lat_max, box.lon_max},
                          {box.lat_min, box.lon_min}};
  const auto v = poly.vertices();
  for (std::size_t i = 0, j = v.size() - 1; i < v.size(); j = i++) {
    q.push_back(v[i]);
    q.push_back({v[i].lat_deg, lon_in_box()});
    q.push_back({v[i].lat_deg, box.lon_min});
    q.push_back({v[i].lat_deg, box.lon_max});
    const double t = rng.next_double();
    const GeoPoint on_edge{v[i].lat_deg + t * (v[j].lat_deg - v[i].lat_deg),
                           v[i].lon_deg + t * (v[j].lon_deg - v[i].lon_deg)};
    q.push_back(on_edge);
    q.push_back({on_edge.lat_deg, std::nextafter(on_edge.lon_deg, -1e9)});
    q.push_back({on_edge.lat_deg, std::nextafter(on_edge.lon_deg, 1e9)});
  }
  for (int k = 0; k < 64; ++k) {
    q.push_back({oracle::sample_uniform(rng, box.lat_min, box.lat_max),
                 lon_in_box()});
  }
  return q;
}

TEST(PolygonTest, SlabContainsMatchesEdgeLoopReference) {
  stats::Pcg32 rng(20240611, /*stream=*/3);
  std::size_t checked = 0;
  for (int round = 0; round < 300; ++round) {
    const int family = round % 3;
    const Polygon poly(family == 0   ? oracle::random_star(rng, 0.0)
                       : family == 1 ? oracle::random_star(rng, 0.5)
                                     : oracle::random_histogram(rng));
    for (const GeoPoint& p : probe_points(rng, poly)) {
      ASSERT_EQ(poly.contains(p), oracle::polygon_contains_reference(poly, p))
          << "round " << round << " at (" << p.lat_deg << ", " << p.lon_deg
          << ")";
      ++checked;
    }
  }
  const Polygon& us = conus_outline();
  for (const GeoPoint& p : probe_points(rng, us)) {
    ASSERT_EQ(us.contains(p), oracle::polygon_contains_reference(us, p));
    ++checked;
  }
  EXPECT_GT(checked, 30000U);
}

TEST(UsOutline, ContainsInteriorCities) {
  const Polygon& us = conus_outline();
  EXPECT_TRUE(us.contains({39.74, -104.99}));  // Denver
  EXPECT_TRUE(us.contains({35.15, -90.05}));   // Memphis
  EXPECT_TRUE(us.contains({44.98, -93.27}));   // Minneapolis
  EXPECT_TRUE(us.contains({33.45, -112.07}));  // Phoenix
  EXPECT_TRUE(us.contains({30.27, -97.74}));   // Austin
}

TEST(UsOutline, ExcludesExteriorPoints) {
  const Polygon& us = conus_outline();
  EXPECT_FALSE(us.contains({45.42, -75.7}));   // Ottawa
  EXPECT_FALSE(us.contains({19.43, -99.13}));  // Mexico City
  EXPECT_FALSE(us.contains({25.0, -90.0}));    // Gulf of Mexico
  EXPECT_FALSE(us.contains({40.0, -70.0}));    // Atlantic
}

TEST(UsOutline, AreaIsContinentalScale) {
  // CONUS is ~8.1M km^2; the coarse outline should land within 15%.
  EXPECT_NEAR(conus_area_km2(), 8.1e6, 1.3e6);
}

// ------------------------------------------------------------- projection ----

TEST(AzimuthalEquidistantTest, CenterMapsToOrigin) {
  const AzimuthalEquidistant proj({39.5, -98.35});
  const PlanePoint o = proj.forward({39.5, -98.35});
  EXPECT_NEAR(o.x, 0.0, 1e-9);
  EXPECT_NEAR(o.y, 0.0, 1e-9);
}

TEST(AzimuthalEquidistantTest, RadialDistanceIsExact) {
  const AzimuthalEquidistant proj({39.5, -98.35});
  for (const GeoPoint p : {GeoPoint{40.0, -98.35}, GeoPoint{39.5, -90.0},
                           GeoPoint{30.0, -110.0}, GeoPoint{48.0, -70.0}}) {
    const PlanePoint q = proj.forward(p);
    EXPECT_NEAR(std::hypot(q.x, q.y), distance_km({39.5, -98.35}, p), 1e-6);
  }
}

TEST(AzimuthalEquidistantTest, RoundTripAcrossConus) {
  const AzimuthalEquidistant proj({39.5, -98.35});
  for (const GeoPoint p : {GeoPoint{25.8, -80.2}, GeoPoint{47.6, -122.3},
                           GeoPoint{29.8, -95.4}, GeoPoint{44.9, -68.7}}) {
    const GeoPoint back = proj.inverse(proj.forward(p));
    EXPECT_TRUE(approx_equal(p, back, 1e-8))
        << "(" << p.lat_deg << ", " << p.lon_deg << ") came back as ("
        << back.lat_deg << ", " << back.lon_deg << ")";
  }
}

// ---------------------------------------------------- parameterized sweep ----

struct RoundTripCase {
  double lat;
  double lon;
};

class ProjectionRoundTrip : public ::testing::TestWithParam<RoundTripCase> {};

TEST_P(ProjectionRoundTrip, ForwardInverseIdentity) {
  const auto [lat, lon] = GetParam();
  const AzimuthalEquidistant proj({39.5, -98.35});
  const GeoPoint p{lat, lon};
  EXPECT_TRUE(approx_equal(p, proj.inverse(proj.forward(p)), 1e-7));
}

INSTANTIATE_TEST_SUITE_P(
    ConusGrid, ProjectionRoundTrip,
    ::testing::Values(RoundTripCase{25.0, -120.0}, RoundTripCase{25.0, -80.0},
                      RoundTripCase{49.0, -120.0}, RoundTripCase{49.0, -70.0},
                      RoundTripCase{37.0, -98.0}, RoundTripCase{30.0, -85.0},
                      RoundTripCase{45.0, -110.0}, RoundTripCase{33.0, -95.0}));

}  // namespace
}  // namespace leodivide::geo
