#pragma once
// LDSNAP serializers for the heavy pipeline artifacts:
//
//   demand::DemandProfile            (kProfile   — per-cell aggregates)
//   core::AnalysisResults            (kAnalysis  — sizing/report results)
//   std::vector<sim::EpochCoverage>  (kEpochs    — simulation summaries)
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
#include "leodivide/market/simulation.hpp"
#include "leodivide/sim/coverage.hpp"
#include "leodivide/snapshot/format.hpp"

namespace leodivide::snapshot {

[[nodiscard]] std::string serialize(const demand::DemandProfile& profile);
[[nodiscard]] std::string serialize(const core::AnalysisResults& results);
[[nodiscard]] std::string serialize(const std::vector<sim::EpochCoverage>& epochs);
[[nodiscard]] std::string serialize(const market::MarketReport& report);

[[nodiscard]] demand::DemandProfile deserialize_profile(std::string_view file);
[[nodiscard]] core::AnalysisResults deserialize_analysis(std::string_view file);
[[nodiscard]] std::vector<sim::EpochCoverage> deserialize_epochs(
    std::string_view file);
[[nodiscard]] market::MarketReport deserialize_market_report(
    std::string_view file);

}  // namespace leodivide::snapshot
