#pragma once
// County registry: the affordability analysis joins un(der)served locations
// with the median household income of their county (US Census ACS style).

#include <cstdint>
#include <string>
#include <vector>

#include "leodivide/geo/geopoint.hpp"

namespace leodivide::demand {

/// One county (or county-equivalent cluster in synthetic data).
struct County {
  std::string fips;                 ///< 5-digit FIPS code (synthetic ok)
  geo::GeoPoint centroid;
  double median_income_usd = 0.0;   ///< annual household median income
  std::uint64_t underserved_locations = 0;

  /// Exact (bit-level) equality; snapshot round-trip tests rely on it.
  friend bool operator==(const County&, const County&) = default;
};

/// A usable county median income: finite and above zero. The CSV loader
/// and income deltas accept exactly these values.
[[nodiscard]] bool valid_median_income(double usd) noexcept;

/// Flat county table with constant-time FIPS lookup.
class CountyTable {
 public:
  CountyTable() = default;
  explicit CountyTable(std::vector<County> counties);

  /// Appends a county; returns its index. Throws std::invalid_argument on
  /// duplicate FIPS.
  std::uint32_t add(County county);

  [[nodiscard]] const County& at(std::uint32_t index) const;
  /// Mutable access for income and location updates. The FIPS code is the
  /// lookup key and must not be changed through this reference.
  [[nodiscard]] County& at(std::uint32_t index);

  /// Index of a county by FIPS, or -1 if absent.
  [[nodiscard]] std::int64_t find(const std::string& fips) const;

  [[nodiscard]] std::size_t size() const noexcept { return counties_.size(); }
  [[nodiscard]] const std::vector<County>& all() const noexcept {
    return counties_;
  }

 private:
  /// Slot of `fips` in fips_slots_: the one holding its county, or the
  /// empty slot where it would be inserted. Requires a non-empty index.
  [[nodiscard]] std::size_t slot_of(const std::string& fips) const;

  std::vector<County> counties_;
  /// Open-addressing FIPS index, linear probing, kept at most half full:
  /// each slot holds a county index + 1, or 0 when empty.
  std::vector<std::uint32_t> fips_slots_;
};

}  // namespace leodivide::demand
