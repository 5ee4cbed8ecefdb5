#pragma once
// Fixed-width histograms, used to regenerate the left panel of the paper's
// Figure 1 (# of un(der)served locations per Starlink service cell).

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace leodivide::stats {

/// A histogram with `bins` equal-width bins over [lo, hi]. Values exactly at
/// `hi` land in the last bin; values outside [lo, hi] are counted separately
/// as under/overflow.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins);

  void add(double value);
  void add_all(std::span<const double> values);

  [[nodiscard]] std::size_t bin_count() const { return counts_.size(); }
  [[nodiscard]] std::uint64_t underflow() const { return underflow_; }
  [[nodiscard]] std::uint64_t overflow() const { return overflow_; }
  [[nodiscard]] std::uint64_t total() const { return total_; }

  /// Inclusive lower edge of a bin.
  [[nodiscard]] double bin_lo(std::size_t bin) const;
  /// Exclusive upper edge of a bin (inclusive for the last bin).
  [[nodiscard]] double bin_hi(std::size_t bin) const;
  [[nodiscard]] double bin_width() const { return width_; }

  /// Renders a fixed-width ASCII bar chart, one row per bin, scaled so the
  /// largest bin occupies `max_bar` characters. Intended for bench output.
  [[nodiscard]] std::string ascii(std::size_t max_bar = 50) const;

 private:
  double lo_;
  double hi_;
  double width_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t underflow_ = 0;
  std::uint64_t overflow_ = 0;
  std::uint64_t total_ = 0;
};

}  // namespace leodivide::stats
