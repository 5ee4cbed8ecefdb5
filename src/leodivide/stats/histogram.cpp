#include "leodivide/stats/histogram.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

namespace leodivide::stats {

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), width_((hi - lo) / static_cast<double>(bins)) {
  if (!(hi > lo)) throw std::invalid_argument("Histogram: hi must be > lo");
  if (bins == 0) throw std::invalid_argument("Histogram: bins must be > 0");
  counts_.assign(bins, 0);
}

void Histogram::add(double value) {
  ++total_;
  if (value < lo_) {
    ++underflow_;
    return;
  }
  if (value > hi_) {
    ++overflow_;
    return;
  }
  auto bin = static_cast<std::size_t>((value - lo_) / width_);
  bin = std::min(bin, counts_.size() - 1);  // value == hi_
  ++counts_[bin];
}

void Histogram::add_all(std::span<const double> values) {
  for (double v : values) add(v);
}

double Histogram::bin_lo(std::size_t bin) const {
  if (bin >= counts_.size()) throw std::out_of_range("Histogram::bin_lo");
  return lo_ + width_ * static_cast<double>(bin);
}

double Histogram::bin_hi(std::size_t bin) const {
  if (bin >= counts_.size()) throw std::out_of_range("Histogram::bin_hi");
  return lo_ + width_ * static_cast<double>(bin + 1);
}

std::string Histogram::ascii(std::size_t max_bar) const {
  const std::uint64_t peak =
      counts_.empty() ? 0 : *std::max_element(counts_.begin(), counts_.end());
  std::ostringstream out;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    const auto bar =
        peak == 0 ? std::size_t{0}
                  : static_cast<std::size_t>(std::llround(
                        static_cast<double>(counts_[i]) * static_cast<double>(max_bar) /
                        static_cast<double>(peak)));
    out << "[" << bin_lo(i) << ", " << bin_hi(i) << ") "
        << std::string(bar, '#') << " " << counts_[i] << "\n";
  }
  return out.str();
}

}  // namespace leodivide::stats
