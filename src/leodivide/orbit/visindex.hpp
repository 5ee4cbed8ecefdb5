#pragma once
// Per-epoch satellite spatial index: buckets satellites by sub-satellite
// point into a lat-band x lon-sector geodesic grid sized from the coverage
// central angle psi, so a ground cell queries only the O(k) satellites whose
// buckets can intersect its coverage cone instead of scanning the whole
// constellation. The candidate set is a strict superset of the truly
// visible set (callers keep their exact angular test as the final filter)
// and is duplicate-free, emitted in bucket-major order; a caller whose
// selection tie-breaks on satellite index explicitly is byte-identical to a
// full ascending scan. A query is two steps: window() does the trig (band
// range, longitude half-width, sector ranges) and yields bucket spans that
// depend only on the cell and the grid layout; gather() walks those spans.
// A caller querying fixed cells epoch after epoch (the scheduler) keeps
// the spans and pays only the walk. retire() drops a satellite from every
// later gather until the next build(), so a caller whose satellites fill up
// (the scheduler's beam budgets) stops gathering and filtering candidates
// it would reject anyway.

#include <cstddef>
#include <cstdint>
#include <vector>

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

class VisIndex {
 public:
  /// Rebuilds the index over `sats` for a coverage central angle of
  /// `psi_rad` (must be > 0). Internal storage is reused: rebuilding at an
  /// unchanged constellation size and coverage angle performs no heap
  /// allocation after the first build.
  void build(const std::vector<SatState>& sats, double psi_rad);

  /// Removes satellite `sat` (an index into the last build's states) from
  /// every later gather() until the next build(), which restores it. The
  /// removal shifts the rest of its bucket down in place, so buckets stay
  /// ascending; it never allocates. Retiring an already-retired satellite
  /// is a no-op.
  void retire(std::uint32_t sat) noexcept;

  /// Appends to `spans` the bucket runs that can hold a satellite whose
  /// sub-point lies within psi + `extra_deg` (>= 0; kWindowSlackDeg is
  /// added on top) of `cell`. Handles polar caps (all longitudes scanned
  /// once the cap reaches a pole); a band whose sector range wraps the
  /// date line yields two spans. The spans depend only on `cell`, the
  /// half-angle and the grid layout (band_sectors()), never on the
  /// satellites, and each grows monotonically with the half-angle.
  void window(const geo::GeoPoint& cell, double extra_deg,
              std::vector<BucketSpan>& spans) const;

  /// Writes the live (unretired) satellites of `spans[0, n)` to `out`,
  /// which must have room for sat_count() entries, and returns how many
  /// it wrote. The spans must come from window() on an index with the same
  /// band_sectors() and must not repeat a bucket. Never allocates.
  std::size_t gather(const BucketSpan* spans, std::size_t n,
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
  [[nodiscard]] std::uint32_t band_of(double lat_deg) const noexcept;
  [[nodiscard]] std::uint32_t sector_of(std::uint32_t band,
                                        double lon_deg) const noexcept;

  std::size_t n_sats_ = 0;
  std::uint32_t n_bands_ = 0;
  double band_height_deg_ = 180.0;
  double psi_deg_ = 0.0;
  double sin_window_ = 0.0;  ///< sin(psi + query slack), per build
  std::vector<std::uint32_t> band_sectors_;  ///< lon sectors per band
  std::vector<std::uint32_t> band_offset_;   ///< first bucket id per band
  std::vector<std::uint32_t> bucket_start_;  ///< CSR offsets (buckets + 1)
  std::vector<std::uint32_t> bucket_end_;    ///< live end per bucket
  std::vector<std::uint32_t> bucket_sats_;   ///< ascending within a bucket
  std::vector<std::uint32_t> sat_bucket_;    ///< bucket of each satellite
};

}  // namespace leodivide::orbit
