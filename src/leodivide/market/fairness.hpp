#pragma once
// Market-level fairness accounting: how many cells each operator wins and
// serves, how evenly service is distributed across operators (Jain's
// index), and why the remaining unserved cells are unserved — a capacity
// limit no operator could overcome even with its full spectrum, or a
// casualty of the sharing regime itself.

#include <cstdint>
#include <vector>

namespace leodivide::market {

/// Per-operator service tallies over one profile.
struct OperatorFairness {
  /// Cells this operator wins: of the operators serving the cell, it has
  /// the most capacity headroom, the earliest index on exact ties.
  std::uint64_t cells_won = 0;
  std::uint64_t cells_served = 0;      ///< cells it can serve at all
  std::uint64_t locations_served = 0;  ///< locations in its served cells

  /// Exact (bit-level) equality; snapshot round-trip tests rely on it.
  friend bool operator==(const OperatorFairness&,
                         const OperatorFairness&) = default;
};

/// Market fairness over one profile under one sharing regime.
struct FairnessReport {
  std::vector<OperatorFairness> operators;  ///< config order

  /// Jain's index over per-operator locations_served: 1.0 when the market
  /// splits evenly, 1/n when one operator serves everything.
  double jain_served_locations = 0.0;

  std::uint64_t unserved_cells = 0;
  std::uint64_t unserved_locations = 0;

  /// Unserved because no operator could serve the cell even with its full
  /// (unsplit) spectrum — the paper's capacity wall.
  std::uint64_t capacity_limited_cells = 0;

  /// Unserved only because of the sharing regime: some operator could have
  /// served the cell with its full spectrum but none can with its split
  /// share.
  std::uint64_t split_limited_cells = 0;

  /// Exact (bit-level) equality; snapshot round-trip tests rely on it.
  friend bool operator==(const FairnessReport&,
                         const FairnessReport&) = default;
};

/// Jain's fairness index (sum x)^2 / (n * sum x^2) over non-negative
/// allocations: 1.0 when all equal, 1/n when one participant takes all.
/// Defined as 1.0 for an all-zero vector (trivially equal) and 0.0 for an
/// empty one. Throws std::invalid_argument on negative or non-finite
/// entries.
[[nodiscard]] double jain_index(const std::vector<double>& allocations);

}  // namespace leodivide::market
