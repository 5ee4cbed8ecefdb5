#pragma once
// Percentile and quantile estimation over samples.

#include <span>

namespace leodivide::stats {

/// Returns the p-th percentile (p in [0, 100]) of `sorted` using linear
/// interpolation between order statistics (the "linear" / type-7 method, the
/// same default as NumPy). `sorted` must be non-decreasing and non-empty.
[[nodiscard]] double percentile_sorted(std::span<const double> sorted,
                                       double p);

/// Convenience: copies, sorts, and evaluates the percentile.
[[nodiscard]] double percentile(std::span<const double> values, double p);

}  // namespace leodivide::stats
