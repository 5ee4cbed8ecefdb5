#pragma once
// Kahan-compensated summation.

namespace leodivide::stats {

/// Kahan–Babuška compensated accumulator. Sums of millions of per-location
/// demands must not drift; plain double accumulation loses low bits.
class KahanSum {
 public:
  void add(double v) noexcept;
  [[nodiscard]] double value() const noexcept { return sum_ + carry_; }

 private:
  double sum_ = 0.0;
  double carry_ = 0.0;
};

}  // namespace leodivide::stats
