#pragma once
// LDSNAP serializers for the heavy pipeline artifacts:
//
//   demand::DemandProfile            (kProfile   — per-cell aggregates)
//   core::AnalysisResults            (kAnalysis  — sizing/report results)
//   std::vector<sim::EpochCoverage>  (kEpochs    — simulation summaries)
//   std::vector<demand::DeltaOp>     (kDeltaJournal — serve/ delta journal)
//   market::MarketReport             (kMarketReport — multi-operator runs)
//
// Round trips are exact: doubles travel as IEEE-754 bit patterns, so
// deserialize(serialize(x)) == x bit-for-bit and a cached stage can replace
// recomputation without perturbing downstream output. Deserializers
// re-validate semantic invariants (county indices in range, known enum
// codes) and throw SnapshotError — corrupted input that passes
// the checksums still cannot reach undefined behaviour.

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "leodivide/core/scenario.hpp"
#include "leodivide/demand/dataset.hpp"
#include "leodivide/demand/delta.hpp"
#include "leodivide/market/simulation.hpp"
#include "leodivide/sim/coverage.hpp"
#include "leodivide/snapshot/format.hpp"

namespace leodivide::snapshot {

[[nodiscard]] std::string serialize(const demand::DemandProfile& profile);
[[nodiscard]] std::string serialize(const core::AnalysisResults& results);
[[nodiscard]] std::string serialize(const std::vector<sim::EpochCoverage>& epochs);
[[nodiscard]] std::string serialize(const std::vector<demand::DeltaOp>& journal);
[[nodiscard]] std::string serialize(const market::MarketReport& report);

[[nodiscard]] demand::DemandProfile deserialize_profile(std::string_view file);
[[nodiscard]] core::AnalysisResults deserialize_analysis(std::string_view file);
[[nodiscard]] std::vector<sim::EpochCoverage> deserialize_epochs(
    std::string_view file);
[[nodiscard]] std::vector<demand::DeltaOp> deserialize_delta_journal(
    std::string_view file);
[[nodiscard]] market::MarketReport deserialize_market_report(
    std::string_view file);

/// Smallest wire size of one DeltaOp (an empty plan name): the bound every
/// decoder checks a batch count against before reserving.
inline constexpr std::size_t kDeltaOpMinBytes = 1 + 8 + 8 + 4 + 4 + 4 + 8;

/// Wire codec for one DeltaOp. Shared between the kDeltaJournal artifact
/// and the serve/ protocol's ApplyDelta request, so the two encodings can
/// never drift apart. read_delta_op validates the kind code and throws
/// SnapshotError on anything unknown.
void write_delta_op(ByteWriter& w, const demand::DeltaOp& op);
[[nodiscard]] demand::DeltaOp read_delta_op(ByteReader& r);

}  // namespace leodivide::snapshot
