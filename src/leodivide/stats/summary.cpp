#include "leodivide/stats/summary.hpp"

#include <cmath>

namespace leodivide::stats {

void KahanSum::add(double v) noexcept {
  const double t = sum_ + v;
  if (std::abs(sum_) >= std::abs(v)) {
    carry_ += (sum_ - t) + v;
  } else {
    carry_ += (v - t) + sum_;
  }
  sum_ = t;
}

}  // namespace leodivide::stats
