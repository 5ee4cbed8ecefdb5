// Golden equivalence suite for the spatially-indexed scheduling kernel:
// BeamScheduler::schedule (VisIndex-pruned) must produce byte-identical
// ScheduleResults to oracle::schedule_reference (the naive full scan) on
// every strategy, constellation and cell geometry — including polar caps
// and the date line — and the simulation trace must be identical at every
// thread count. Also pins the zero-allocation contract of the steady-state
// epoch loop via a counting global operator new.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <new>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "leodivide/demand/generator.hpp"
#include "leodivide/geo/angle.hpp"
#include "leodivide/geo/ecef.hpp"
#include "leodivide/obs/gate.hpp"
#include "leodivide/obs/metrics.hpp"
#include "leodivide/orbit/propagate.hpp"
#include "leodivide/orbit/visindex.hpp"
#include "leodivide/orbit/walker.hpp"
#include "leodivide/runtime/executor.hpp"
#include "leodivide/runtime/thread_pool.hpp"
#include "leodivide/sim/beam.hpp"
#include "leodivide/sim/clock.hpp"
#include "leodivide/sim/coverage.hpp"
#include "leodivide/sim/scheduler.hpp"
#include "leodivide/sim/simulation.hpp"
#include "leodivide/sim/workspace.hpp"
#include "leodivide/stats/rng.hpp"
#include "oracles/oracles.hpp"

// ------------------------------------------------------------------------
// Counting allocator hooks. Every operator new in the process bumps the
// counter; the steady-state test asserts the epoch loop leaves it
// untouched. delete stays the default-compatible free.
namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace leodivide::sim {
namespace {

constexpr Strategy kAllStrategies[] = {Strategy::kMostSlack,
                                       Strategy::kFirstFit,
                                       Strategy::kBestFit};

std::vector<SchedCell> random_cells(stats::Pcg32& rng, std::size_t n,
                                    double lat_min, double lat_max) {
  std::vector<SchedCell> cells;
  cells.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    SchedCell c;
    c.center = {lat_min + rng.next_double() * (lat_max - lat_min),
                -180.0 + rng.next_double() * 360.0};
    c.ecef_km = geo::spherical_to_cartesian(c.center, geo::kEarthRadiusKm);
    c.locations = 1 + static_cast<std::uint32_t>(rng.next_below(2000));
    c.beams_needed = 1 + static_cast<std::uint32_t>(rng.next_below(4));
    cells.push_back(c);
  }
  return cells;
}

orbit::SatState sat_at(double lat, double lon, double alt_km = 550.0) {
  orbit::SatState s;
  s.ecef_km =
      geo::spherical_to_cartesian({lat, lon}, geo::kEarthRadiusKm + alt_km);
  return s;
}

void expect_equivalent(const BeamScheduler& scheduler,
                       const std::vector<orbit::SatState>& states) {
  const ScheduleResult indexed = scheduler.schedule(states);
  const ScheduleResult naive = oracle::schedule_reference(scheduler, states);
  ASSERT_EQ(indexed.assignments.size(), naive.assignments.size());
  EXPECT_TRUE(indexed == naive);
}

// ---------------------------------------------------- randomized shells ----

TEST(IndexedEquivalence, RandomWalkerShellsMatchReferenceExactly) {
  stats::Pcg32 rng(20250806);
  for (int trial = 0; trial < 12; ++trial) {
    orbit::WalkerShell shell;
    shell.inclination_deg = 40.0 + rng.next_double() * 58.0;  // up to polar
    shell.altitude_km = 350.0 + rng.next_double() * 900.0;
    shell.planes = 6 + static_cast<std::uint32_t>(rng.next_below(10));
    shell.sats_per_plane = 4 + static_cast<std::uint32_t>(rng.next_below(12));
    shell.phasing = static_cast<std::uint32_t>(rng.next_below(shell.planes));
    const auto orbits = orbit::make_constellation(shell);
    const auto states =
        orbit::propagate_all(orbits, rng.next_double() * 6000.0);
    auto cells = random_cells(rng, 60, -85.0, 85.0);
    for (const Strategy strategy : kAllStrategies) {
      SchedulerConfig config;
      config.beamspread = 1 + static_cast<std::uint32_t>(rng.next_below(6));
      config.strategy = strategy;
      expect_equivalent(BeamScheduler(cells, config), states);
    }
  }
}

TEST(IndexedEquivalence, WorkspaceReuseAcrossEpochsMatchesReference) {
  // One workspace carried across many epochs (the simulation's pattern)
  // must give the same schedules as fresh naive runs at each epoch.
  const auto profile = demand::SyntheticGenerator({.seed = 17, .scale = 0.01})
                           .generate_profile();
  const auto cells = BeamScheduler::cells_from_profile(
      profile, core::SatelliteCapacityModel(), 20.0);
  const BeamScheduler scheduler(cells, SchedulerConfig{});
  const auto orbits = orbit::make_constellation(orbit::starlink_shell1());
  ScheduleWorkspace ws;
  ScheduleResult indexed;
  for (int e = 0; e < 6; ++e) {
    const double t = 47.0 * e;
    orbit::propagate_all(orbits, t, ws.states);
    scheduler.schedule(ws.states, ws, indexed);
    EXPECT_TRUE(indexed == oracle::schedule_reference(scheduler, ws.states))
        << "epoch " << e;
  }
}

// ------------------------------------------------------- edge geometries ----

TEST(IndexedEquivalence, PolarCellsMatchReference) {
  // Cells at and around the poles; a polar-orbiting constellation passes
  // directly over them, exercising the all-longitudes cap branch.
  stats::Pcg32 rng(7);
  std::vector<SchedCell> cells;
  for (double lat : {90.0, 89.9, 88.0, -88.0, -89.9, -90.0}) {
    for (double lon : {-170.0, -45.0, 0.0, 60.0, 179.0}) {
      SchedCell c;
      c.center = {lat, lon};
      c.ecef_km = geo::spherical_to_cartesian(c.center, geo::kEarthRadiusKm);
      c.locations = 1 + static_cast<std::uint32_t>(rng.next_below(500));
      c.beams_needed = 1 + static_cast<std::uint32_t>(rng.next_below(3));
      cells.push_back(c);
    }
  }
  const orbit::WalkerShell polar{97.0, 600.0, 12, 12, 1};
  const auto states =
      orbit::propagate_all(orbit::make_constellation(polar), 321.0);
  for (const Strategy strategy : kAllStrategies) {
    SchedulerConfig config;
    config.strategy = strategy;
    expect_equivalent(BeamScheduler(cells, config), states);
  }
}

TEST(IndexedEquivalence, DateLineCellsMatchReference) {
  // Cells and satellites straddling the antimeridian: the index's sector
  // window wraps modulo 360 and must not lose the far side.
  stats::Pcg32 rng(11);
  std::vector<SchedCell> cells;
  for (double lon : {179.99, 179.5, 178.0, -178.0, -179.5, -179.99, 180.0}) {
    for (double lat : {-40.0, 0.0, 35.0, 62.0}) {
      SchedCell c;
      c.center = {lat, lon};
      c.ecef_km = geo::spherical_to_cartesian(c.center, geo::kEarthRadiusKm);
      c.locations = 1 + static_cast<std::uint32_t>(rng.next_below(500));
      c.beams_needed = 1;
      cells.push_back(c);
    }
  }
  std::vector<orbit::SatState> states;
  for (double lon : {179.9, 179.0, -179.9, -179.0, 178.5, -178.5}) {
    for (double lat : {-38.0, 1.0, 36.0, 60.0}) {
      states.push_back(sat_at(lat, lon));
    }
  }
  for (const Strategy strategy : kAllStrategies) {
    SchedulerConfig config;
    config.strategy = strategy;
    expect_equivalent(BeamScheduler(cells, config), states);
  }
}

// ------------------------------------------------------------ saturation ----

// Cells packed around one centre, so the few satellites over it fill up.
void add_cluster(stats::Pcg32& rng, std::vector<SchedCell>& cells,
                 geo::GeoPoint centre, double radius_deg, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    SchedCell c;
    c.center = {std::clamp(centre.lat_deg +
                               (2.0 * rng.next_double() - 1.0) * radius_deg,
                           -90.0, 90.0),
                geo::wrap_longitude_deg(
                    centre.lon_deg +
                    (2.0 * rng.next_double() - 1.0) * radius_deg)};
    c.ecef_km = geo::spherical_to_cartesian(c.center, geo::kEarthRadiusKm);
    c.locations = 1 + static_cast<std::uint32_t>(rng.next_below(3000));
    // Mostly shared-slot cells, with multi-beam cells up to 6 beams.
    c.beams_needed = rng.next_below(3) == 0
                         ? 2 + static_cast<std::uint32_t>(rng.next_below(5))
                         : 1;
    cells.push_back(c);
  }
}

// Satellites left with zero slack after replaying `result`'s assignments:
// exactly the ones the indexed kernel must have retired.
std::uint64_t full_satellites(const ScheduleResult& result,
                              std::size_t n_sats,
                              const SchedulerConfig& config) {
  std::vector<BeamBudget> budgets(
      n_sats, BeamBudget(config.beams_per_satellite, config.beamspread));
  for (const Assignment& a : result.assignments) {
    BeamBudget& budget = budgets[a.sat];
    const bool ok = a.beams >= 2 ? budget.reserve_whole(a.beams)
                                 : budget.reserve_shared_slot();
    EXPECT_TRUE(ok);
  }
  return static_cast<std::uint64_t>(
      std::count_if(budgets.begin(), budgets.end(),
                    [](const BeamBudget& b) { return b.slack() == 0; }));
}

TEST(IndexedEquivalence, SaturatedSatellitesRetireWithoutChangingSchedules) {
  // Demand far beyond the beams overhead: satellites fill and the indexed
  // kernel retires them mid-epoch. Every schedule must still equal the
  // naive scan's, and the retirement counter must equal the number of
  // satellites the reference leaves full (so retirement really ran).
  obs::set_metrics_enabled(true);
  obs::Counter& retired = obs::registry().counter("sim.sched.retired");
  stats::Pcg32 rng(20251017);
  std::uint64_t total_retired = 0;
  for (int trial = 0; trial < 4; ++trial) {
    orbit::WalkerShell shell;
    shell.inclination_deg = 53.0 + rng.next_double() * 45.0;  // up to polar
    shell.altitude_km = 400.0 + rng.next_double() * 800.0;
    shell.planes = 8 + static_cast<std::uint32_t>(rng.next_below(10));
    shell.sats_per_plane = 6 + static_cast<std::uint32_t>(rng.next_below(10));
    shell.phasing = static_cast<std::uint32_t>(rng.next_below(shell.planes));
    const auto states = orbit::propagate_all(
        orbit::make_constellation(shell), rng.next_double() * 6000.0);

    std::vector<SchedCell> cells;
    add_cluster(rng, cells, {40.0, -100.0}, 6.0, 150);
    add_cluster(rng, cells, {-20.0, 30.0}, 4.0, 100);
    add_cluster(rng, cells, {89.0, 0.0}, 3.0, 80);     // north polar cap
    add_cluster(rng, cells, {-88.0, 120.0}, 3.0, 60);  // south polar cap
    add_cluster(rng, cells, {10.0, 180.0}, 3.0, 80);   // date line
    add_cluster(rng, cells, {55.0, -179.9}, 2.0, 60);

    for (const Strategy strategy : kAllStrategies) {
      for (const std::uint32_t beams : {1U, 2U, 24U}) {
        for (const std::uint32_t beamspread : {1U, 5U}) {
          const SchedulerConfig config{beams, beamspread, 25.0, strategy};
          const BeamScheduler scheduler(cells, config);
          obs::registry().reset_values();
          const ScheduleResult indexed = scheduler.schedule(states);
          const ScheduleResult naive =
              oracle::schedule_reference(scheduler, states);
          EXPECT_TRUE(indexed == naive)
              << "trial " << trial << " beams " << beams << " spread "
              << beamspread;
          const std::uint64_t full =
              full_satellites(naive, states.size(), config);
          EXPECT_EQ(retired.total(), full)
              << "trial " << trial << " beams " << beams << " spread "
              << beamspread;
          EXPECT_GT(full, 0U);
          total_retired += full;
        }
      }
    }
  }
  obs::set_metrics_enabled(false);
  obs::registry().reset_values();
  EXPECT_GT(total_retired, 0U);
}

TEST(IndexedEquivalence, NoSatellitesAndNoCells) {
  stats::Pcg32 rng(3);
  auto cells = random_cells(rng, 5, -60.0, 60.0);
  const BeamScheduler with_cells(cells, SchedulerConfig{});
  expect_equivalent(with_cells, {});
  const BeamScheduler no_cells(std::vector<SchedCell>{}, SchedulerConfig{});
  expect_equivalent(no_cells, {sat_at(10.0, 10.0)});
}

TEST(IndexedEquivalence, RejectsNonFiniteOrOutOfRangeCellCentres) {
  // Such a centre would reach the index's float-to-int bucket lookups; the
  // constructor refuses it up front and names the offending cell.
  const double nan = std::nan("");
  const double inf = std::numeric_limits<double>::infinity();
  stats::Pcg32 rng(5);
  for (const geo::GeoPoint bad :
       {geo::GeoPoint{nan, 0.0}, geo::GeoPoint{1e300, 0.0},
        geo::GeoPoint{-90.5, 0.0}, geo::GeoPoint{0.0, nan},
        geo::GeoPoint{0.0, inf}, geo::GeoPoint{-inf, 10.0}}) {
    auto cells = random_cells(rng, 4, -60.0, 60.0);
    cells[2].center = bad;
    try {
      const BeamScheduler scheduler(cells, SchedulerConfig{});
      ADD_FAILURE() << "accepted " << bad.lat_deg << "," << bad.lon_deg;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("cell 2"), std::string::npos)
          << e.what();
    }
  }
}

// ----------------------------------------------------- VisIndex contract ----

TEST(VisIndexContract, CandidatesAreSortedSupersetOfVisible) {
  stats::Pcg32 rng(99);
  const orbit::WalkerShell shell{53.0, 550.0, 24, 18, 7};
  const auto states =
      orbit::propagate_all(orbit::make_constellation(shell), 1234.5);
  const double psi_rad = 0.2;  // ~11.5 deg coverage cone
  const double cos_psi = std::cos(psi_rad);
  orbit::VisIndex index;
  index.build(states, psi_rad);
  for (int i = 0; i < 200; ++i) {
    const geo::GeoPoint cell{-90.0 + rng.next_double() * 180.0,
                             -180.0 + rng.next_double() * 360.0};
    const geo::Vec3 cu =
        geo::spherical_to_cartesian(cell, geo::kEarthRadiusKm).unit();
    const auto candidates = oracle::vis_candidates(index, cell);
    ASSERT_EQ(std::adjacent_find(candidates.begin(), candidates.end()),
              candidates.end());
    // Every exactly-visible satellite must be in the candidate list.
    std::vector<std::uint32_t> visible;
    for (std::uint32_t si = 0; si < states.size(); ++si) {
      if (cu.dot(states[si].ecef_km.unit()) >= cos_psi) visible.push_back(si);
    }
    EXPECT_TRUE(std::includes(candidates.begin(), candidates.end(),
                              visible.begin(), visible.end()))
        << "cell " << cell.lat_deg << "," << cell.lon_deg;
  }
}

TEST(VisIndexContract, RejectsNonPositivePsi) {
  orbit::VisIndex index;
  EXPECT_THROW(index.build({}, 0.0), std::invalid_argument);
  EXPECT_THROW(index.build({}, -1.0), std::invalid_argument);
}

// ------------------------------------------------------------ fused scan ----

// The bucket a sub-point falls in, by the index's public layout and the
// latitude/longitude float expressions VisIndex uses for window edges.
// build() takes a satellite's bucket from its unit radial instead; the two
// agree except within rounding distance of an edge, where the window's
// slack covers both sides.
std::uint32_t bucket_of(const orbit::VisIndex& index,
                        const geo::GeoPoint& p) {
  const auto cell = [](double scaled, std::uint32_t n) {
    if (!(scaled > 0.0)) return 0U;
    if (scaled >= static_cast<double>(n)) return n - 1;
    return static_cast<std::uint32_t>(scaled);
  };
  const std::uint32_t bands = index.band_count();
  const std::uint32_t band =
      cell((p.lat_deg + 90.0) / (180.0 / static_cast<double>(bands)), bands);
  std::uint32_t first = 0;
  for (std::uint32_t b = 0; b < band; ++b) first += index.band_sectors()[b];
  const std::uint32_t sectors = index.band_sectors()[band];
  return first + cell((p.lon_deg + 180.0) /
                          (360.0 / static_cast<double>(sectors)),
                      sectors);
}

// What a candidate walk without a visibility test returns: every live
// satellite whose bucket lies in `spans`, ascending.
std::vector<std::uint32_t> live_in_spans(
    const orbit::VisIndex& index, const std::vector<orbit::SatState>& states,
    const std::vector<std::uint8_t>& retired,
    const std::vector<orbit::BucketSpan>& spans) {
  std::vector<std::uint32_t> out;
  for (std::uint32_t si = 0; si < states.size(); ++si) {
    if (retired[si] != 0) continue;
    const std::uint32_t b =
        bucket_of(index, geo::cartesian_to_spherical(states[si].ecef_km));
    for (const orbit::BucketSpan& span : spans) {
      if (b >= span.first && b < span.first + span.count) {
        out.push_back(si);
        break;
      }
    }
  }
  return out;
}

// Every live satellite whose unit dot with `cu` passes `cos_psi`, ascending.
std::vector<std::uint32_t> brute_visible(
    const std::vector<orbit::SatState>& states,
    const std::vector<std::uint8_t>& retired, const geo::Vec3& cu,
    double cos_psi) {
  std::vector<std::uint32_t> out;
  for (std::uint32_t si = 0; si < states.size(); ++si) {
    if (retired[si] == 0 && cu.dot(states[si].ecef_km.unit()) >= cos_psi) {
      out.push_back(si);
    }
  }
  return out;
}

// Checks one query: scan() at `cos_psi` (and at thresholds that put a
// satellite exactly on the boundary) keeps the brute-force set, walks the
// live satellites of the window, and at -inf keeps all of them.
void expect_scan_exact(const orbit::VisIndex& index,
                       const std::vector<orbit::SatState>& states,
                       const std::vector<std::uint8_t>& retired,
                       const geo::GeoPoint& cell, double cos_psi) {
  std::vector<orbit::BucketSpan> spans;
  index.window(cell, 0.0, spans);
  const geo::Vec3 cu =
      geo::spherical_to_cartesian(cell, geo::kEarthRadiusKm).unit();
  const std::vector<std::uint32_t> live =
      live_in_spans(index, states, retired, spans);
  std::vector<std::uint32_t> out(index.sat_count());
  const auto scan = [&](double threshold) {
    const orbit::ScanCount n = index.scan(spans.data(), spans.size(), cu,
                                          threshold, out.data());
    EXPECT_EQ(n.live, live.size()) << cell.lat_deg << "," << cell.lon_deg;
    std::vector<std::uint32_t> kept(out.begin(),
                                    out.begin() + static_cast<std::ptrdiff_t>(
                                                      n.visible));
    std::sort(kept.begin(), kept.end());
    return kept;
  };
  EXPECT_EQ(scan(-std::numeric_limits<double>::infinity()), live)
      << cell.lat_deg << "," << cell.lon_deg;
  EXPECT_EQ(oracle::vis_candidates(index, cell), live);

  const std::vector<std::uint32_t> visible =
      brute_visible(states, retired, cu, cos_psi);
  EXPECT_EQ(scan(cos_psi), visible) << cell.lat_deg << "," << cell.lon_deg;
  // Raise the threshold to each visible satellite's own dot: it sits exactly
  // on the boundary and stays; one ulp higher it goes.
  for (const std::uint32_t si : visible) {
    const double dot = cu.dot(states[si].ecef_km.unit());
    for (const double threshold : {dot, std::nextafter(dot, 2.0)}) {
      EXPECT_EQ(scan(threshold), brute_visible(states, retired, cu, threshold))
          << cell.lat_deg << "," << cell.lon_deg << " sat " << si;
    }
  }
}

TEST(FusedScan, KeepsExactlyTheBruteForceSetUnderRetirement) {
  stats::Pcg32 rng(20261019);
  for (int trial = 0; trial < 4; ++trial) {
    orbit::WalkerShell shell;
    shell.inclination_deg = 45.0 + rng.next_double() * 53.0;  // up to polar
    shell.altitude_km = 400.0 + rng.next_double() * 800.0;
    shell.planes = 8 + static_cast<std::uint32_t>(rng.next_below(12));
    shell.sats_per_plane = 6 + static_cast<std::uint32_t>(rng.next_below(12));
    shell.phasing = static_cast<std::uint32_t>(rng.next_below(shell.planes));
    const auto states = orbit::propagate_all(
        orbit::make_constellation(shell), rng.next_double() * 6000.0);
    std::vector<geo::GeoPoint> cells{{90.0, 0.0},    {-90.0, 45.0},
                                     {89.9, 179.99}, {0.0, 180.0},
                                     {10.0, -179.99}, {-35.0, 179.5}};
    for (int i = 0; i < 40; ++i) {
      cells.push_back({-90.0 + rng.next_double() * 180.0,
                       -180.0 + rng.next_double() * 360.0});
    }
    for (const double mask : {0.0, 25.0, 40.0, 70.0}) {
      const CoverageGeometry g =
          coverage_geometry(coverage_radius_km(states), mask);
      orbit::VisIndex index;
      index.build(states, g.psi_rad);
      std::vector<std::uint8_t> retired(states.size(), 0);
      for (const geo::GeoPoint& cell : cells) {
        expect_scan_exact(index, states, retired, cell, g.cos_psi);
        // Retire a few satellites between queries, as a filling beam
        // budget does mid-epoch.
        for (int r = 0; r < 3; ++r) {
          const auto si =
              static_cast<std::uint32_t>(rng.next_below(states.size()));
          index.retire(si);
          retired[si] = 1;
        }
      }
    }
  }
}

TEST(FusedScan, SatellitesOnTheConeEdgeMatchBruteForce) {
  // Satellites placed at the coverage angle psi from polar, date-line and
  // mid-latitude cells, and a hair either side of it, so the dot lands on
  // or next to cos_psi.
  const std::vector<geo::GeoPoint> cells{
      {89.5, 10.0}, {-89.5, -170.0}, {0.0, 180.0}, {0.0, -180.0}, {45.0, 0.0}};
  const double radius_km = geo::kEarthRadiusKm + 550.0;
  const CoverageGeometry g = coverage_geometry(radius_km, 25.0);
  const double psi_deg = geo::rad2deg(g.psi_rad);
  std::vector<orbit::SatState> states;
  for (const geo::GeoPoint& c : cells) {
    for (const double off : {psi_deg, std::nextafter(psi_deg, 0.0),
                             std::nextafter(psi_deg, 90.0), psi_deg - 1e-9,
                             psi_deg + 1e-9}) {
      const double lat = c.lat_deg > 60.0 ? c.lat_deg - off : c.lat_deg + off;
      for (const double dlon : {0.0, 1e-7}) {
        states.push_back(
            sat_at(lat, geo::wrap_longitude_deg(c.lon_deg + dlon), 550.0));
      }
    }
  }
  orbit::VisIndex index;
  index.build(states, g.psi_rad);
  const std::vector<std::uint8_t> retired(states.size(), 0);
  for (const geo::GeoPoint& cell : cells) {
    expect_scan_exact(index, states, retired, cell, g.cos_psi);
  }
}

// Satellites exactly on band edges, sector edges, the date line and both
// poles, where a bucket taken from the unit radial may differ by rounding
// from one taken from latitude and longitude, plus NaN radials. Every
// satellite must land in exactly one valid bucket, the window of every cell
// within psi of a satellite must hold it, and each such cell's scan must
// keep exactly the brute-force visible set. The 80 deg mask gives a grid
// of 224 bands, fine enough that a polar lookup bin holds several band
// edges; its sector sweep is left out to keep the brute force small.
TEST(FusedScan, SatellitesOnBucketEdgesStayInEveryWindow) {
  const double r_km = geo::kEarthRadiusKm + 550.0;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const double mask : {0.0, 25.0, 50.0, 80.0}) {
    const CoverageGeometry g = coverage_geometry(r_km, mask);
    orbit::VisIndex layout;  // the grid depends only on psi
    layout.build({sat_at(0.0, 0.0)}, g.psi_rad);
    const std::uint32_t bands = layout.band_count();
    const double height = 180.0 / static_cast<double>(bands);

    std::vector<orbit::SatState> states;
    for (std::uint32_t b = 1; b < bands; ++b) {
      const double lat = -90.0 + static_cast<double>(b) * height;
      for (const double lon : {0.3, 180.0, -180.0}) {
        states.push_back(sat_at(lat, lon));
      }
    }
    for (const std::uint32_t b : {0U, bands / 4, bands / 2, bands - 1}) {
      if (bands > 100) break;
      const std::uint32_t sectors = layout.band_sectors()[b];
      const double lat_lo = -90.0 + static_cast<double>(b) * height;
      for (std::uint32_t k = 0; k < sectors; ++k) {
        const double lon = -180.0 + 360.0 * static_cast<double>(k) /
                                        static_cast<double>(sectors);
        states.push_back(sat_at(lat_lo + 0.5 * height, lon));
        if (b > 0) states.push_back(sat_at(lat_lo, lon));  // a corner
      }
    }
    for (const double lat : {-60.0, -10.0, 0.0, 33.0, 70.0}) {
      states.push_back(sat_at(lat, 180.0));
      states.push_back(sat_at(lat, -180.0));
    }
    for (const double z : {r_km, -r_km}) {
      orbit::SatState pole;
      pole.ecef_km = {0.0, 0.0, z};
      states.push_back(pole);
    }
    states.push_back(sat_at(90.0, 0.0));
    states.push_back(sat_at(-90.0, 180.0));
    const std::size_t finite = states.size();
    for (const geo::Vec3 v : {geo::Vec3{nan, nan, nan},
                              geo::Vec3{0.0, nan, r_km}}) {
      orbit::SatState bad;
      bad.ecef_km = v;
      states.push_back(bad);
    }

    orbit::VisIndex index;
    index.build(states, g.psi_rad);
    ASSERT_EQ(index.bucket_count(), layout.bucket_count());
    std::vector<std::uint32_t> out(index.sat_count());
    std::vector<orbit::BucketSpan> spans;
    // A window reaching past both poles spans every bucket once: it walks
    // every satellite, and keeps each finite one once (a NaN dot fails
    // even a -inf threshold).
    index.window({90.0, 0.0}, 180.0, spans);
    const orbit::ScanCount all =
        index.scan(spans.data(), spans.size(), {0.0, 0.0, 1.0},
                   -std::numeric_limits<double>::infinity(), out.data());
    ASSERT_EQ(all.live, states.size()) << "mask " << mask;
    ASSERT_EQ(all.visible, finite) << "mask " << mask;
    std::vector<std::uint32_t> ids(
        out.begin(), out.begin() + static_cast<std::ptrdiff_t>(finite));
    std::sort(ids.begin(), ids.end());
    for (std::uint32_t si = 0; si < finite; ++si) {
      ASSERT_EQ(ids[si], si) << "mask " << mask;
    }

    std::vector<geo::Vec3> units;
    for (std::size_t si = 0; si < finite; ++si) {
      units.push_back(states[si].ecef_km.unit());
    }
    for (std::uint32_t si = 0; si < finite; ++si) {
      // Cells at 0, psi/2 and just under psi from the satellite along
      // eight bearings, from an orthonormal tangent frame at its radial.
      const geo::Vec3 u = units[si];
      const geo::Vec3 axis =
          std::abs(u.z) < 0.9 ? geo::Vec3{0.0, 0.0, 1.0}
                              : geo::Vec3{1.0, 0.0, 0.0};
      const geo::Vec3 e1 = geo::Vec3{axis.y * u.z - axis.z * u.y,
                                     axis.z * u.x - axis.x * u.z,
                                     axis.x * u.y - axis.y * u.x}
                               .unit();
      const geo::Vec3 e2{u.y * e1.z - u.z * e1.y, u.z * e1.x - u.x * e1.z,
                         u.x * e1.y - u.y * e1.x};
      for (const double d : {0.0, 0.5 * g.psi_rad, 0.999999 * g.psi_rad}) {
        const int bearings = d > 0.0 ? 8 : 1;
        for (int k = 0; k < bearings; ++k) {
          const double bearing = geo::kTwoPi * (k + 0.125) / 8.0;
          const double t1 = std::sin(d) * std::cos(bearing);
          const double t2 = std::sin(d) * std::sin(bearing);
          const geo::GeoPoint cell = geo::cartesian_to_spherical(
              {std::cos(d) * u.x + t1 * e1.x + t2 * e2.x,
               std::cos(d) * u.y + t1 * e1.y + t2 * e2.y,
               std::cos(d) * u.z + t1 * e1.z + t2 * e2.z});
          const geo::Vec3 cu =
              geo::spherical_to_cartesian(cell, geo::kEarthRadiusKm).unit();
          std::vector<std::uint32_t> visible;
          for (std::uint32_t sj = 0; sj < finite; ++sj) {
            if (cu.dot(units[sj]) >= g.cos_psi) visible.push_back(sj);
          }
          ASSERT_TRUE(std::binary_search(visible.begin(), visible.end(), si))
              << "mask " << mask << " sat " << si << " not within psi of "
              << cell.lat_deg << "," << cell.lon_deg;
          spans.clear();
          index.window(cell, 0.0, spans);
          const orbit::ScanCount n = index.scan(
              spans.data(), spans.size(), cu, g.cos_psi, out.data());
          std::vector<std::uint32_t> kept(
              out.begin(),
              out.begin() + static_cast<std::ptrdiff_t>(n.visible));
          std::sort(kept.begin(), kept.end());
          EXPECT_EQ(kept, visible) << "mask " << mask << " sat " << si
                                   << " cell " << cell.lat_deg << ","
                                   << cell.lon_deg;
        }
      }
    }
  }
}

// End to end: the scheduler's fused visibility scan keeps schedules
// byte-identical to schedule_reference on geometries built to graze the
// elevation mask (satellites right at the visibility cone's edge).
TEST(FusedScan, SchedulerBitIdenticalOnGrazingGeometry) {
  std::vector<SchedCell> cells;
  for (const geo::GeoPoint p :
       {geo::GeoPoint{89.5, 10.0}, geo::GeoPoint{-89.5, -170.0},
        geo::GeoPoint{0.0, 180.0}, geo::GeoPoint{0.0, -180.0},
        geo::GeoPoint{45.0, 0.0}}) {
    SchedCell c;
    c.center = p;
    c.ecef_km = geo::spherical_to_cartesian(p, geo::kEarthRadiusKm);
    c.locations = 500;
    c.beams_needed = 2;
    cells.push_back(c);
  }
  SchedulerConfig config;
  config.min_elevation_deg = 25.0;

  std::vector<orbit::SatState> sats;
  // A ring of satellites at small angular offsets from each cell, spanning
  // both sides of the visibility cone boundary for the configured mask.
  for (const SchedCell& c : cells) {
    for (const double off_deg : {0.0, 5.0, 10.0, 14.9, 15.0, 15.1, 20.0}) {
      const geo::GeoPoint p{c.center.lat_deg > 74.0
                                ? c.center.lat_deg - off_deg
                                : c.center.lat_deg + off_deg,
                            c.center.lon_deg};
      orbit::SatState s;
      s.ecef_km = geo::spherical_to_cartesian(p, geo::kEarthRadiusKm + 550.0);
      sats.push_back(s);
    }
  }

  for (const Strategy strategy :
       {Strategy::kMostSlack, Strategy::kFirstFit, Strategy::kBestFit}) {
    config.strategy = strategy;
    const BeamScheduler scheduler(cells, config);
    const ScheduleResult indexed = scheduler.schedule(sats);
    const ScheduleResult naive = oracle::schedule_reference(scheduler, sats);
    EXPECT_TRUE(indexed == naive);
  }
}

// ----------------------------------------------- thread-count invariance ----

TEST(TraceInvariance, IdenticalAcrossThreadCountsAndEqualToReference) {
  SimulationConfig config;
  config.duration_s = 300.0;
  config.step_s = 50.0;
  const auto profile = demand::SyntheticGenerator({.seed = 17, .scale = 0.01})
                           .generate_profile();
  const Simulation sim(config, profile);

  const auto serial = sim.run(runtime::serial_executor());
  runtime::ThreadPool pool4(4);
  const auto threads4 = sim.run(pool4);
  runtime::ThreadPool pool8(8);
  const auto threads8 = sim.run(pool8);
  EXPECT_TRUE(serial == threads4);
  EXPECT_TRUE(serial == threads8);

  // Hand-built reference trace through the naive kernel: replicate the
  // simulation's construction (same cells, config, orbits), schedule each
  // epoch with oracle::schedule_reference and summarize.
  const BeamScheduler scheduler(
      BeamScheduler::cells_from_profile(profile, core::SatelliteCapacityModel(),
                                        config.oversub_target),
      config.scheduler);
  const auto orbits = orbit::make_constellation(config.shell);
  const SimClock clock(config.duration_s, config.step_s);
  ASSERT_EQ(serial.size(), clock.epochs());
  std::vector<std::uint32_t> scratch;
  for (std::size_t e = 0; e < clock.epochs(); ++e) {
    const double t = clock.time_at(e);
    const auto ref = oracle::schedule_reference(
        scheduler, orbit::propagate_all(orbits, t));
    EXPECT_TRUE(serial[e] ==
                summarize_epoch(ref, scheduler.cells().size(), t, scratch))
        << "epoch " << e;
  }
}

// ------------------------------------------------------- workspace reuse ----

// Schedules `states` through the shared workspace and checks the result
// against a fresh workspace's schedule and the naive reference.
void expect_reused_matches_fresh(const BeamScheduler& scheduler,
                                 const std::vector<orbit::SatState>& states,
                                 ScheduleWorkspace& ws, const char* step) {
  ScheduleResult reused;
  scheduler.schedule(states, ws, reused);
  EXPECT_TRUE(reused == scheduler.schedule(states)) << step;
  EXPECT_TRUE(reused == oracle::schedule_reference(scheduler, states))
      << step;
}

TEST(Workspace, ReusedAcrossSchedulersAndShellsMatchesFresh) {
  const core::SatelliteCapacityModel model;
  const auto cells_of = [&model](std::uint64_t seed) {
    return BeamScheduler::cells_from_profile(
        demand::SyntheticGenerator({.seed = seed, .scale = 0.01})
            .generate_profile(),
        model, 20.0);
  };
  const auto shell_states = [](double altitude_km, double t) {
    orbit::WalkerShell shell = orbit::starlink_shell1();
    shell.altitude_km = altitude_km;
    return orbit::propagate_all(orbit::make_constellation(shell), t);
  };
  const BeamScheduler a(cells_of(1), SchedulerConfig{});
  const BeamScheduler b(cells_of(2), SchedulerConfig{});
  ASSERT_FALSE(std::equal(
      a.cells().begin(), a.cells().end(), b.cells().begin(), b.cells().end(),
      [](const SchedCell& x, const SchedCell& y) {
        return x.locations == y.locations &&
               x.beams_needed == y.beams_needed &&
               x.center.lat_deg == y.center.lat_deg &&
               x.center.lon_deg == y.center.lon_deg;
      }));
  const auto low = shell_states(550.0, 90.0);
  ScheduleWorkspace ws;

  // Two schedulers with different cells over the same states, alternated.
  expect_reused_matches_fresh(a, low, ws, "A");
  expect_reused_matches_fresh(b, low, ws, "A then B");
  expect_reused_matches_fresh(a, low, ws, "A, B, A");

  // Two shells whose index grids differ.
  const auto high = shell_states(1200.0, 90.0);
  const auto layout = [](const std::vector<orbit::SatState>& states) {
    orbit::VisIndex index;
    index.build(states, coverage_geometry(coverage_radius_km(states), 25.0)
                            .psi_rad);
    return std::pair{index.band_count(), index.bucket_count()};
  };
  ASSERT_NE(layout(low), layout(high));
  expect_reused_matches_fresh(a, high, ws, "1200 km after 550 km");
  expect_reused_matches_fresh(a, low, ws, "550 km after 1200 km");

  // Two shells with the same grid, the second with the larger psi.
  const auto raised = shell_states(552.0, 90.0);
  ASSERT_EQ(layout(low), layout(raised));
  ASSERT_GT(coverage_geometry(coverage_radius_km(raised), 25.0).psi_rad,
            coverage_geometry(coverage_radius_km(low), 25.0).psi_rad);
  expect_reused_matches_fresh(a, low, ws, "550 km");
  expect_reused_matches_fresh(a, raised, ws, "552 km after 550 km");

  // Every strategy over the same cells, sharing the workspace.
  for (const Strategy strategy : kAllStrategies) {
    SchedulerConfig config;
    config.strategy = strategy;
    expect_reused_matches_fresh(BeamScheduler(a.cells(), config), low, ws,
                                "strategy");
    expect_reused_matches_fresh(BeamScheduler(b.cells(), config), raised, ws,
                                "strategy, other cells and shell");
  }
}

// ------------------------------------------------------- zero allocation ----

TEST(Workspace, SteadyStateEpochLoopIsAllocationFree) {
  const auto profile = demand::SyntheticGenerator({.seed = 17, .scale = 0.01})
                           .generate_profile();
  const BeamScheduler scheduler(
      BeamScheduler::cells_from_profile(profile, core::SatelliteCapacityModel(),
                                        20.0),
      SchedulerConfig{});
  const auto orbits = orbit::make_constellation(orbit::starlink_shell1());
  const SimClock clock(300.0, 100.0);

  ScheduleWorkspace ws;
  ScheduleResult schedule;
  auto run_epochs = [&] {
    for (std::size_t e = 0; e < clock.epochs(); ++e) {
      const double t = clock.time_at(e);
      orbit::propagate_all(orbits, t, ws.states);
      scheduler.schedule(ws.states, ws, schedule);
      (void)summarize_epoch(schedule, scheduler.cells().size(), t,
                            ws.sat_dedup);
    }
  };
  run_epochs();  // warm every buffer (and any lazy obs statics)

  const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  run_epochs();
  const std::uint64_t after = g_allocs.load(std::memory_order_relaxed);
  EXPECT_EQ(after, before)
      << "steady-state epoch loop performed " << (after - before)
      << " heap allocations";
}

}  // namespace
}  // namespace leodivide::sim
