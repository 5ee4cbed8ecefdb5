#include "leodivide/orbit/visindex.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "leodivide/geo/angle.hpp"

namespace leodivide::orbit {

namespace {

// Upper bounds keeping the grid small when psi is tiny (high elevation
// masks / very low shells). Coarser buckets only add candidates; the exact
// test downstream removes them.
constexpr std::uint32_t kMaxBands = 256;
constexpr std::uint32_t kMaxSectorsPerBand = 1024;

// Lookup bins per band over unit z, and per sector over a band's
// pseudo-angles. A sector spans at least pi / sectors of pseudo-angle, so
// at two bins per sector a bin holds at most one sector edge; at 16 bins
// per band only a polar bin of a very fine grid holds more than one band
// edge. A lookup therefore walks 0 or 1 edges from its bin's guess.
constexpr std::uint32_t kBandBinsPerBand = 16;
constexpr std::uint32_t kSectorBinsPerSector = 2;

// A trig-free stand-in for the angle of (a, b) counterclockwise from the +a
// axis: 1 - a / (|a| + |b|) in the upper half-plane, 3 + a / (|a| + |b|)
// in the lower, so [0, 4] over [0, 360] deg, increasing with the angle at
// a slope of 1/2 to 1 per radian. NaN for (0, 0).
[[nodiscard]] double pseudo_angle(double a, double b) noexcept {
  const double r = a / (std::abs(a) + std::abs(b));
  return b >= 0.0 ? 1.0 - r : 3.0 + r;
}

// The bin of a value already scaled to bin units, clamped in double before
// the cast, so NaN and out-of-range values land in a valid bin.
[[nodiscard]] std::uint32_t bin_of(double scaled, std::uint32_t bins) noexcept {
  if (!(scaled > 0.0)) return 0;
  if (scaled >= static_cast<double>(bins)) return bins - 1;
  return static_cast<std::uint32_t>(scaled);
}

// From edge index `i`, the first edge above `v`: the number of edges at or
// below `v` when no earlier edge is. The edges ascend and end in +inf, so
// the walk stops, and NaN never steps.
[[nodiscard]] std::uint32_t walk(const double* edges, std::uint32_t i,
                                 double v) noexcept {
  // The first step is taken or not without a branch: a sector lookup
  // needs it often enough that a branch on it would mispredict.
  i += static_cast<std::uint32_t>(v >= edges[i]);
  while (v >= edges[i]) ++i;
  return i;
}

// Fills `guess` with each bin's walk result at the bin's lower end, less a
// hair: a value the bin expression rounds into the bin lies above that, so
// walking on from the guess finds its exact rank.
void fill_guesses(const double* edges, double lo, double width,
                  std::uint32_t* guess, std::uint32_t bins) noexcept {
  std::uint32_t g = 0;
  for (std::uint32_t q = 0; q < bins; ++q) {
    g = walk(edges, g, lo + (static_cast<double>(q) - 1e-6) * width);
    guess[q] = g;
  }
}

}  // namespace

// Any point — NaN or far out of range included — maps to a valid band and
// sector (bin_of clamps before the cast).
std::uint32_t VisIndex::band_of(double lat_deg) const noexcept {
  return bin_of((lat_deg + 90.0) / band_height_deg_, n_bands_);
}

std::uint32_t VisIndex::sector_of(std::uint32_t band,
                                  double lon_deg) const noexcept {
  const std::uint32_t sectors = band_sectors_[band];
  return bin_of((lon_deg + 180.0) / (360.0 / static_cast<double>(sectors)),
                sectors);
}

std::uint32_t VisIndex::bucket_of(double x, double y,
                                  double z) const noexcept {
  const auto band_bins = static_cast<std::uint32_t>(band_guess_.size());
  const std::uint32_t band =
      walk(band_edge_.data(),
           band_guess_[bin_of((z + 1.0) * (0.5 * band_bins), band_bins)], z);
  const std::uint32_t first = band_offset_[band];
  const std::uint32_t sectors = band_sectors_[band];
  const double p = pseudo_angle(-x, -y);
  const std::uint32_t bin = bin_of(p * (0.25 * kSectorBinsPerSector * sectors),
                                   kSectorBinsPerSector * sectors);
  return first + walk(sector_edge_.data() + first,
                      sector_guess_[kSectorBinsPerSector * first + bin], p);
}

void VisIndex::set_layout() {
  sin_window_ = std::sin(geo::deg2rad(psi_deg_ + kWindowSlackDeg));

  // Grid counts are clamped in double before the cast: a tiny psi (a mask
  // near 90 deg) makes the quotients overflow uint32_t.
  const auto bands = static_cast<std::uint32_t>(
      std::clamp(180.0 / psi_deg_, 1.0, static_cast<double>(kMaxBands)));
  bool changed = bands != n_bands_;
  n_bands_ = bands;
  band_height_deg_ = 180.0 / static_cast<double>(n_bands_);

  // Sector count per band: widths of at least one coverage angle at the
  // band latitude closest to the equator (where parallels are longest), so
  // a single query window spans O(1) sectors.
  band_sectors_.resize(n_bands_);
  band_offset_.resize(n_bands_ + 1);
  std::uint32_t buckets = 0;
  for (std::uint32_t b = 0; b < n_bands_; ++b) {
    const double lat_lo = -90.0 + static_cast<double>(b) * band_height_deg_;
    const double lat_hi = lat_lo + band_height_deg_;
    const double min_abs_lat =
        (lat_lo <= 0.0 && lat_hi >= 0.0)
            ? 0.0
            : std::min(std::abs(lat_lo), std::abs(lat_hi));
    const double parallel_deg = 360.0 * std::cos(geo::deg2rad(min_abs_lat));
    const auto sectors = static_cast<std::uint32_t>(
        std::clamp(parallel_deg / psi_deg_, 1.0,
                   static_cast<double>(kMaxSectorsPerBand)));
    changed = changed || sectors != band_sectors_[b];
    band_sectors_[b] = sectors;
    band_offset_[b] = buckets;
    buckets += sectors;
  }
  band_offset_[n_bands_] = buckets;
  if (!changed) return;

  // Band b + 1 starts at latitude -90 + (b + 1) * height, and sector k + 1
  // of a band with S sectors where the angle of (-x, -y), the longitude
  // plus 180 deg, reaches (k + 1) * 360 / S. Each table ends in +inf.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  band_edge_.resize(n_bands_);
  for (std::uint32_t b = 0; b + 1 < n_bands_; ++b) {
    band_edge_[b] = std::sin(geo::deg2rad(
        -90.0 + static_cast<double>(b + 1) * band_height_deg_));
  }
  band_edge_[n_bands_ - 1] = kInf;
  band_guess_.resize(kBandBinsPerBand * n_bands_);
  fill_guesses(band_edge_.data(), -1.0,
               2.0 / static_cast<double>(band_guess_.size()),
               band_guess_.data(),
               static_cast<std::uint32_t>(band_guess_.size()));

  sector_edge_.resize(buckets);
  sector_guess_.resize(kSectorBinsPerSector * buckets);
  for (std::uint32_t b = 0; b < n_bands_; ++b) {
    const std::uint32_t sectors = band_sectors_[b];
    double* const edges = sector_edge_.data() + band_offset_[b];
    for (std::uint32_t k = 0; k + 1 < sectors; ++k) {
      const double angle = geo::deg2rad(360.0 * static_cast<double>(k + 1) /
                                        static_cast<double>(sectors));
      edges[k] = pseudo_angle(std::cos(angle), std::sin(angle));
    }
    edges[sectors - 1] = kInf;
    const std::uint32_t bins = kSectorBinsPerSector * sectors;
    fill_guesses(edges, 0.0, 4.0 / static_cast<double>(bins),
                 sector_guess_.data() + kSectorBinsPerSector * band_offset_[b],
                 bins);
  }
}

void VisIndex::build(const std::vector<SatState>& sats, double psi_rad) {
  if (!(psi_rad > 0.0)) {
    throw std::invalid_argument("VisIndex: coverage angle must be > 0");
  }
  const double psi_deg = geo::rad2deg(psi_rad);
  // leolint:allow(float-eq): exact-bit layout key; a miss only recomputes
  if (psi_deg != psi_deg_) {
    psi_deg_ = psi_deg;
    set_layout();
  }
  n_sats_ = sats.size();

  // CSR fill in two passes; iterating satellites in index order keeps every
  // bucket's list ascending.
  unit_x_.resize(n_sats_);
  unit_y_.resize(n_sats_);
  unit_z_.resize(n_sats_);
  bucket_start_.assign(static_cast<std::size_t>(band_offset_[n_bands_]) + 1,
                       0);
  sat_bucket_.resize(n_sats_);
  for (std::size_t i = 0; i < n_sats_; ++i) {
    const geo::Vec3 u = sats[i].ecef_km.unit();
    unit_x_[i] = u.x;
    unit_y_[i] = u.y;
    unit_z_[i] = u.z;
    const std::uint32_t bucket = bucket_of(u.x, u.y, u.z);
    sat_bucket_[i] = bucket;
    ++bucket_start_[bucket + 1];
  }
  for (std::size_t b = 1; b < bucket_start_.size(); ++b) {
    bucket_start_[b] += bucket_start_[b - 1];
  }
  bucket_sats_.resize(n_sats_);
  // bucket_start_ doubles as the write cursor (allocation-free): after the
  // fill, entry b holds bucket b's end, which is bucket b+1's start, so one
  // right-shift restores the offsets.
  for (std::size_t i = 0; i < n_sats_; ++i) {
    bucket_sats_[bucket_start_[sat_bucket_[i]]++] =
        static_cast<std::uint32_t>(i);
  }
  for (std::size_t b = bucket_start_.size() - 1; b > 0; --b) {
    bucket_start_[b] = bucket_start_[b - 1];
  }
  bucket_start_[0] = 0;
  bucket_end_.assign(bucket_start_.begin() + 1, bucket_start_.end());
}

void VisIndex::retire(std::uint32_t sat) noexcept {
  if (sat >= n_sats_) return;
  const std::uint32_t bucket = sat_bucket_[sat];
  const auto first = bucket_sats_.begin() + bucket_start_[bucket];
  const auto last = bucket_sats_.begin() + bucket_end_[bucket];
  const auto it = std::lower_bound(first, last, sat);
  if (it == last || *it != sat) return;  // already retired
  // Close the gap across the rest of the band, not just the bucket, so
  // the live satellites of any run of one band's buckets stay contiguous.
  const std::uint32_t band_last =
      *std::upper_bound(band_offset_.begin(), band_offset_.end(), bucket) - 1;
  std::copy(it + 1, bucket_sats_.begin() + bucket_end_[band_last], it);
  --bucket_end_[bucket];
  for (std::uint32_t b = bucket + 1; b <= band_last; ++b) {
    --bucket_start_[b];
    --bucket_end_[b];
  }
}

void VisIndex::window(const geo::GeoPoint& cell, double extra_deg,
                      std::vector<BucketSpan>& spans) const {
  if (n_bands_ == 0) return;  // never built

  const double window_deg = psi_deg_ + extra_deg + kWindowSlackDeg;
  const std::uint32_t b_lo = band_of(cell.lat_deg - window_deg);
  const std::uint32_t b_hi = band_of(cell.lat_deg + window_deg);

  // Longitude half-width of the coverage cap: sin(dlon) = sin(psi)/cos(lat)
  // while the cap stays clear of the poles; a cap containing a pole spans
  // every longitude.
  const bool polar = std::abs(cell.lat_deg) + window_deg >= 90.0;
  double dlon_deg = 180.0;
  if (!polar) {
    const double sin_window =
        extra_deg > 0.0 ? std::sin(geo::deg2rad(window_deg)) : sin_window_;
    const double s = sin_window / std::cos(geo::deg2rad(cell.lat_deg));
    dlon_deg =
        geo::rad2deg(std::asin(std::min(1.0, s))) + kWindowSlackDeg;
  }
  // The window's edge longitudes are the same in every band.
  const double lon = geo::wrap_longitude_deg(cell.lon_deg);
  const double lon_lo = geo::wrap_longitude_deg(lon - dlon_deg);
  const double lon_hi = geo::wrap_longitude_deg(lon + dlon_deg);

  for (std::uint32_t b = b_lo; b <= b_hi; ++b) {
    const std::uint32_t sectors = band_sectors_[b];
    const std::uint32_t base = band_offset_[b];
    const double sector_width = 360.0 / static_cast<double>(sectors);
    std::uint32_t s0 = 0;
    std::uint32_t count = sectors;
    if (dlon_deg < 180.0 - sector_width) {
      s0 = sector_of(b, lon_lo);
      const std::uint32_t s1 = sector_of(b, lon_hi);
      count = std::min(sectors, (s1 + sectors - s0) % sectors + 1);
    }
    // A run past the band's last sector wraps the date line to sector 0.
    const std::uint32_t head = std::min(count, sectors - s0);
    spans.push_back({base + s0, head});
    if (head < count) spans.push_back({base, count - head});
  }
}

ScanCount VisIndex::scan(const BucketSpan* spans, std::size_t n,
                         const geo::Vec3& cell_unit, double cos_psi,
                         std::uint32_t* out) const noexcept {
  const double cx = cell_unit.x;
  const double cy = cell_unit.y;
  const double cz = cell_unit.z;
  const double* const ux = unit_x_.data();
  const double* const uy = unit_y_.data();
  const double* const uz = unit_z_.data();
  const std::uint32_t* const sats = bucket_sats_.data();
  std::size_t live = 0;
  std::size_t k = 0;
  for (std::size_t i = 0; i < n; ++i) {
    // A span is a run of one band's buckets, whose live satellites retire()
    // keeps contiguous: one range covers the whole span.
    const std::uint32_t lo = bucket_start_[spans[i].first];
    const std::uint32_t hi = bucket_end_[spans[i].first + spans[i].count - 1];
    live += hi - lo;
    // A cell tests ~7 live candidates and keeps ~1, so a branch on the test
    // mispredicts more often than the dot product costs: store every
    // candidate and advance the cursor by the test's 0 or 1.
    for (std::uint32_t j = lo; j < hi; ++j) {
      const std::uint32_t s = sats[j];
      out[k] = s;
      k += static_cast<std::size_t>(cx * ux[s] + cy * uy[s] + cz * uz[s] >=
                                    cos_psi);
    }
  }
  return {live, k};
}

}  // namespace leodivide::orbit
