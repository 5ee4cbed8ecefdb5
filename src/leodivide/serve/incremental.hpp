#pragma once
// The incremental-recompute engine behind the analysis service. The
// baseline demand profile is partitioned into *regions* — coarse hex cells
// (kRegionResolution) covering the service cells — and every query is a
// deterministic merge of per-region partial results:
//
//   resize          per-region core::BindingCandidate
//   served fraction per-region core::ServedCounts
//   peak cell       per-region demand::PeakCandidate
//
// Each region carries an edit version that apply() bumps whenever a delta
// dirties it, and every partial records the version it was folded at. A
// partial is live only while that version is current, so ApplyDelta marks
// one region stale and O(dirty) partials recompute at the next query while
// every untouched region is served from its cached partial. Versions are
// exact: an edit can never leave a stale partial live, though a region
// whose content returns to an earlier state still recomputes. Partials live
// in memory only: a region folds its ~36 cells (at scale 1) faster than a
// blob could be read back, so a fresh engine simply folds every region.
//
// Determinism contract: every answer is byte-identical to the plain
// library call (core::size_full_service / size_with_cap /
// served_*_fraction, afford::AffordabilityAnalyzer) on the mutated
// profile, at every thread count, because the partials are the library's
// own candidates and their merges are partition-invariant. --paranoid
// mode re-runs the full computation on every query and throws
// ParanoiaError on any bit difference.

#include <cstdint>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "leodivide/afford/affordability.hpp"
#include "leodivide/core/served_fraction.hpp"
#include "leodivide/core/sizing.hpp"
#include "leodivide/demand/delta.hpp"
#include "leodivide/hex/hexgrid.hpp"

namespace leodivide::serve {

/// Region granularity. Aperture-4 ladder: resolution 2 puts ~64 service
/// cells (resolution 5) in one region — small enough that a delta dirties
/// little, large enough that per-region bookkeeping stays cheap.
inline constexpr int kRegionResolution = 2;

/// Engine options. Cells are service cells (hex::kServiceCellResolution)
/// and every query evaluates the paper's core::SizingModel{}.
struct EngineConfig {
  bool paranoid = false;  ///< cross-check every answer against full recompute
};

/// A paranoid-mode cross-check failed: an incremental answer differed from
/// the full recompute at the bit level. This is always an engine bug.
class ParanoiaError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Counters since engine construction.
struct EngineStats {
  std::uint64_t deltas_applied = 0;
  std::uint64_t dirty_regions = 0;      ///< cumulative regions dirtied
  std::uint64_t region_recomputes = 0;  ///< region partials recomputed
  std::uint64_t partial_hits = 0;    ///< region partials served from memory
  std::uint64_t partial_misses = 0;  ///< region partial lookups that missed
  std::uint64_t paranoid_checks = 0;
  std::uint64_t cells = 0;    ///< current profile cell count
  std::uint64_t regions = 0;  ///< current region count
};

/// What one applied delta touched.
struct ApplyOutcome {
  demand::DeltaEffect effect;
  std::size_t region = 0;     ///< dirtied region (when effect.cells_changed)
  bool region_added = false;  ///< the op created a brand-new region
};

/// Resize answer: both deployment options of F1.
struct ResizeAnswer {
  core::SizingResult full;    ///< full service (unbounded oversubscription)
  core::SizingResult capped;  ///< capped at the requested oversubscription

  friend bool operator==(const ResizeAnswer&, const ResizeAnswer&) = default;
};

/// Served-fraction answer with the integer evidence behind the ratios.
struct ServedFractionAnswer {
  double cell_fraction = 0.0;
  double location_fraction = 0.0;
  std::uint64_t served_cells = 0;
  std::uint64_t total_cells = 0;
  std::uint64_t served_locations = 0;
  std::uint64_t total_locations = 0;

  friend bool operator==(const ServedFractionAnswer&,
                         const ServedFractionAnswer&) = default;
};

/// The engine. NOT thread-safe: the serving layer serializes access (one
/// mutation or query at a time) under its own lock. Non-copyable and
/// non-movable — the internal DeltaApplier borrows the owned profile.
class IncrementalEngine {
 public:
  /// Takes ownership of the baseline profile.
  IncrementalEngine(demand::DemandProfile baseline, EngineConfig config);

  IncrementalEngine(const IncrementalEngine&) = delete;
  IncrementalEngine& operator=(const IncrementalEngine&) = delete;

  /// Applies one delta (kSetPlanPrice is rejected here — plan prices live
  /// in the serving layer's plan table). Throws std::invalid_argument on
  /// invalid ops; the profile is unchanged when apply throws.
  ApplyOutcome apply(const demand::DeltaOp& op);

  /// Byte-identical to core::size_full_service + core::size_with_cap on
  /// the current profile. Throws std::invalid_argument on an empty profile.
  [[nodiscard]] ResizeAnswer query_resize(double beamspread,
                                          double oversub_cap);

  /// Byte-identical to core::served_cell_fraction +
  /// core::served_location_fraction on the current profile.
  [[nodiscard]] ServedFractionAnswer query_served_fraction(double beamspread,
                                                           double oversub);

  /// Byte-identical to afford::AffordabilityAnalyzer(profile).evaluate on
  /// the current profile. The analyzer and its answers are kept until a
  /// delta edits the county table (every location op and income revision
  /// does), then rebuilt at the next call. Throws std::invalid_argument
  /// when no county has un(der)served locations.
  [[nodiscard]] afford::PlanAffordability query_affordability(
      const afford::ServicePlan& plan, double threshold);

  [[nodiscard]] const demand::DemandProfile& profile() const noexcept {
    return applier_.profile();
  }
  [[nodiscard]] const EngineConfig& config() const noexcept { return config_; }
  [[nodiscard]] std::size_t region_count() const noexcept {
    return regions_.size();
  }
  [[nodiscard]] EngineStats stats() const noexcept;

 private:
  struct Region {
    std::vector<std::size_t> members;  ///< cell indices, ascending
    std::uint64_t version = 1;         ///< bumped by each delta it takes
  };

  // A per-region partial: a core candidate plus the region version it was
  // folded at; it is live only while that version is current. No region
  // is ever at version 0, so a fresh partial always folds.
  template <typename Candidate>
  struct Partial {
    std::uint64_t version = 0;
    Candidate value;
  };

  using SizeKey = std::pair<std::uint64_t, std::uint64_t>;  // bit patterns
  using AffordKey = std::tuple<std::string, std::uint64_t, std::uint64_t,
                               std::uint64_t, std::uint64_t>;

  /// Region of a cell id, creating the region if new (returns its index).
  std::size_t region_of(hex::CellId cell);

  /// The region's candidate: memoized while the region version is
  /// unchanged, else recomputed by folding every member cell through
  /// `fold(candidate, index, cell)`.
  template <typename Candidate, typename Fold>
  const Candidate& region_partial(std::size_t region,
                                  std::vector<Partial<Candidate>>& partials,
                                  const Fold& fold);

  /// The global peak cell, merged from the per-region peak partials.
  [[nodiscard]] demand::PeakCandidate merged_peak();

  void paranoid_check_resize(double beamspread, double oversub_cap,
                             const ResizeAnswer& answer);
  void paranoid_check_served(double beamspread, double oversub,
                             const ServedFractionAnswer& answer);
  void paranoid_check_affordability(const afford::ServicePlan& plan,
                                    double threshold,
                                    const afford::PlanAffordability& answer);

  EngineConfig config_;
  const core::SizingModel model_;  ///< the paper's sizing model
  hex::HexGrid grid_;
  demand::DemandProfile profile_;
  demand::DeltaApplier applier_;  // borrows profile_ and grid_

  std::vector<Region> regions_;
  std::vector<std::size_t> cell_region_;  ///< cell index -> region index
  // Region-parent cell bits -> region index. Lookups only; nothing ever
  // iterates it, so the map's order can't leak into results.
  std::unordered_map<std::uint64_t, std::size_t> region_index_;

  std::uint64_t total_locations_ = 0;

  std::map<SizeKey, std::vector<Partial<core::BindingCandidate>>> sizing_memo_;
  std::vector<Partial<demand::PeakCandidate>> peak_memo_;
  std::map<std::uint32_t, std::vector<Partial<core::ServedCounts>>>
      served_memo_;

  // Both are dropped by every county-table edit and rebuilt on demand.
  std::optional<afford::AffordabilityAnalyzer> analyzer_;
  std::map<AffordKey, afford::PlanAffordability> afford_memo_;

  EngineStats stats_;
};

}  // namespace leodivide::serve
