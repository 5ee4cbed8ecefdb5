#pragma once
// Per-epoch satellite spatial index: buckets satellites by unit radial into
// a lat-band x lon-sector geodesic grid sized from the coverage central
// angle psi, so a ground cell queries only the O(k) satellites whose
// buckets can intersect its coverage cone instead of scanning the whole
// constellation. A query is two steps: window() does the trig (band range,
// longitude half-width, sector ranges) and yields bucket spans that depend
// only on the cell and the grid layout; scan() walks those spans and keeps
// the satellites that pass the exact visibility test (the dot of the cell's
// and the satellite's unit radials against cos psi). The spans cover a
// strict superset of the visible set, so the test alone decides; the kept
// satellites are duplicate-free and in bucket-major order, and a caller
// whose selection tie-breaks on satellite index explicitly is byte-identical
// to a full ascending scan. A caller querying fixed cells epoch after epoch
// (the scheduler) keeps the spans and pays only the scan. retire() drops a
// satellite from every later scan until the next build(), so a caller whose
// satellites fill up (the scheduler's beam budgets) stops testing
// candidates it would reject anyway.
//
// build() places a satellite without trig: its band is the number of band
// edges whose sine lies at or below the radial's z, and its sector the
// number of the band's sector edges at or below a monotone pseudo-angle of
// (-x, -y), whose true angle is the longitude plus 180 deg. The edge
// tables, and the bins that start each lookup near its answer, depend only
// on the layout and are rebuilt only when it changes.
// Why this cannot change a query's result: the radial-derived bucket is
// the bucket of the satellite's latitude and longitude except where
// rounding puts the satellite on the other side of an edge, i.e. well
// within 1e-12 deg of it. window() widens every window by kWindowSlackDeg
// (1e-6 deg), so a satellite within psi of the cell lies that far inside
// the window's latitude and longitude range, and both buckets next to any
// edge within rounding distance of it are in the window. The exact cos-psi
// test in scan() then decides, as before.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "leodivide/geo/ecef.hpp"
#include "leodivide/orbit/propagate.hpp"

namespace leodivide::orbit {

/// Query windows are inflated by this margin so a satellite sitting exactly
/// on the coverage boundary (where the caller's cos-threshold test could
/// still accept it under rounding) can never fall outside the scanned
/// buckets. ~0.1 m on the ground — a few extra candidates at most.
inline constexpr double kWindowSlackDeg = 1e-6;

/// A run of `count` consecutive bucket ids starting at `first`.
struct BucketSpan {
  std::uint32_t first = 0;
  std::uint32_t count = 0;
};

/// What one VisIndex::scan() walked and kept.
struct ScanCount {
  std::size_t live = 0;     ///< live satellites in the scanned buckets
  std::size_t visible = 0;  ///< of those, written to `out`
};

class VisIndex {
 public:
  /// Rebuilds the index over `sats` for a coverage central angle of
  /// `psi_rad` (must be > 0), and stores each satellite's unit radial
  /// (ecef_km.unit(), which throws std::domain_error for a zero position;
  /// the index must then be rebuilt before its next query). A NaN radial
  /// lands in some valid bucket and never passes scan()'s test.
  /// Internal storage is reused: rebuilding at an unchanged constellation
  /// size and coverage angle takes no trig and performs no heap allocation
  /// after the first build.
  void build(const std::vector<SatState>& sats, double psi_rad);

  /// Removes satellite `sat` (an index into the last build's states) from
  /// every later scan() until the next build(), which restores it. The
  /// removal shifts the rest of its band down in place, so buckets stay
  /// ascending and the live satellites of consecutive buckets in one band
  /// stay contiguous; it never allocates. Retiring an already-retired
  /// satellite is a no-op.
  void retire(std::uint32_t sat) noexcept;

  /// Appends to `spans` the bucket runs that can hold a satellite whose
  /// unit radial lies within psi + `extra_deg` (>= 0; kWindowSlackDeg is
  /// added on top) of `cell`. Handles polar caps (all longitudes scanned
  /// once the cap reaches a pole); a band whose sector range wraps the
  /// date line yields two spans. The spans depend only on `cell`, the
  /// half-angle and the grid layout (band_sectors()), never on the
  /// satellites, and each grows monotonically with the half-angle.
  void window(const geo::GeoPoint& cell, double extra_deg,
              std::vector<BucketSpan>& spans) const;

  /// Walks the live (unretired) satellites of `spans[0, n)` in bucket-major
  /// order and writes to `out` each satellite s whose unit radial u passes
  ///   cell_unit.x * u.x + cell_unit.y * u.y + cell_unit.z * u.z >= cos_psi
  /// (evaluated left to right; the build disables FP contraction, so the
  /// result is the scalar expression's bit for bit). NaN fails the test;
  /// cos_psi = -inf keeps every live candidate. `out` must have room for
  /// sat_count() entries: every candidate is stored before the test decides
  /// whether the next one overwrites it, so the loop never branches on a
  /// result. The spans must come from window() on an index with the same
  /// band_sectors() (each is one or more buckets of a single band) and must
  /// not repeat a bucket. Never allocates.
  ScanCount scan(const BucketSpan* spans, std::size_t n,
                 const geo::Vec3& cell_unit, double cos_psi,
                 std::uint32_t* out) const noexcept;

  /// Longitude sectors of each latitude band, south to north: the grid
  /// layout. Two indexes with equal layouts number their buckets alike.
  [[nodiscard]] const std::vector<std::uint32_t>& band_sectors()
      const noexcept {
    return band_sectors_;
  }
  /// Coverage central angle of the last build [deg].
  [[nodiscard]] double psi_deg() const noexcept { return psi_deg_; }

  [[nodiscard]] std::size_t sat_count() const noexcept { return n_sats_; }
  [[nodiscard]] std::uint32_t band_count() const noexcept { return n_bands_; }
  [[nodiscard]] std::size_t bucket_count() const noexcept {
    return bucket_start_.empty() ? 0 : bucket_start_.size() - 1;
  }

 private:
  /// Recomputes the layout for psi_deg_ and, when it changed, the edge
  /// tables.
  void set_layout();

  // Bucket lookups for a cell's window edges (degrees) and for a
  // satellite's unit radial (edge tables, no trig).
  [[nodiscard]] std::uint32_t band_of(double lat_deg) const noexcept;
  [[nodiscard]] std::uint32_t sector_of(std::uint32_t band,
                                        double lon_deg) const noexcept;
  [[nodiscard]] std::uint32_t bucket_of(double x, double y,
                                        double z) const noexcept;

  std::size_t n_sats_ = 0;
  std::uint32_t n_bands_ = 0;
  double band_height_deg_ = 180.0;
  double psi_deg_ = 0.0;
  double sin_window_ = 0.0;  ///< sin(psi + query slack)
  std::vector<std::uint32_t> band_sectors_;  ///< lon sectors per band
  std::vector<std::uint32_t> band_offset_;   ///< first bucket id per band
  // Radial lookup tables, rebuilt with the layout. Entry b of band_edge_
  // is the sine of band b + 1's lower latitude, and entry band_offset_[b]
  // + k of sector_edge_ the pseudo-angle where band b's sector k + 1
  // starts; each band's run, like band_edge_, ends in +inf. The guesses
  // are the walk's start per lookup bin: 16 bins per band over unit z,
  // two per sector over each band's pseudo-angles.
  std::vector<double> band_edge_;
  std::vector<std::uint32_t> band_guess_;
  std::vector<double> sector_edge_;
  std::vector<std::uint32_t> sector_guess_;
  std::vector<std::uint32_t> bucket_start_;  ///< live start (buckets + 1)
  std::vector<std::uint32_t> bucket_end_;    ///< live end per bucket
  std::vector<std::uint32_t> bucket_sats_;   ///< ascending within a bucket
  std::vector<std::uint32_t> sat_bucket_;    ///< bucket of each satellite
  std::vector<double> unit_x_;  ///< SoA satellite unit radials
  std::vector<double> unit_y_;
  std::vector<double> unit_z_;
};

}  // namespace leodivide::orbit
