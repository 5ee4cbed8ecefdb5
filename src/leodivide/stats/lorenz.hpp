#pragma once
// Concentration statistics: Gini coefficient and top share. The paper's
// whole argument rests on demand being *concentrated* (a long tail of
// dense cells drives the constellation size); these quantify that
// concentration for the Figure-1 companion analysis.

#include <span>

namespace leodivide::stats {

/// Gini coefficient of non-negative values in [0, 1): 0 = perfectly even,
/// -> 1 = fully concentrated. Throws std::invalid_argument on empty input,
/// negative values, or an all-zero input.
[[nodiscard]] double gini(std::span<const double> values);

/// Share of the total held by the top `fraction` of values (e.g. "the top
/// 1% of cells hold X% of all un(der)served locations").
[[nodiscard]] double top_share(std::span<const double> values,
                               double fraction);

}  // namespace leodivide::stats
