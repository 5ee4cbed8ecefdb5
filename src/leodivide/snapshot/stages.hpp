#pragma once
// One definition per cached pipeline artifact kind: the cache stage name,
// the key recipe (what is mixed into stage_fingerprint(name)), the compute
// call and the LDSNAP codec pair. Every caller runs a definition with
// run_stage(), so each key recipe is written once.
//
// The key rule: a stage key covers the exact bytes the stage consumes. A
// generated profile may be keyed by its generator config (generation is
// deterministic); a profile read back from CSV must be keyed by its own
// bytes, since the round trip rounds coordinates to 1e-6 degrees and K(phi)
// depends on latitude.
//
// Definitions copy their configs but hold profiles and simulations by
// reference; run_stage reads them when it runs, not when the definition is
// built.

#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "leodivide/core/scenario.hpp"
#include "leodivide/demand/generator.hpp"
#include "leodivide/market/simulation.hpp"
#include "leodivide/sim/coverage.hpp"
#include "leodivide/sim/simulation.hpp"
#include "leodivide/snapshot/cache.hpp"
#include "leodivide/snapshot/fingerprint.hpp"

namespace leodivide::snapshot {

template <typename T>
struct StageDef {
  const char* name;  ///< cache stage name and span label (static storage)
  std::function<void(Fingerprint&)> mix;  ///< key recipe after the name
  std::function<T()> compute;
  std::function<std::string(const T&)> serialize;
  std::function<T(std::string_view)> deserialize;

  /// The full cache key: stage_fingerprint(name) + mix.
  [[nodiscard]] Fingerprint key() const {
    Fingerprint fp = stage_fingerprint(name);
    mix(fp);
    return fp;
  }
};

/// The stage cache's one restore-or-compute path: returns the valid blob
/// stored under `def`'s key, deserialized, or computes the artifact and
/// stores its serialization. A blob failing deserialization (SnapshotError)
/// counts as a miss and is overwritten. A null cache computes without
/// building the key.
template <typename T>
[[nodiscard]] T run_stage(const StageCache* cache, const StageDef<T>& def) {
  if (cache == nullptr) return def.compute();
  const Fingerprint fp = def.key();
  if (std::optional<std::string> blob = cache->load(def.name, fp)) {
    try {
      return def.deserialize(std::string_view(*blob));
    } catch (const SnapshotError&) {
      // Invalid blob: recompute below; the store replaces it.
      cache->note_bad_blob();
    }
  }
  T value = def.compute();
  cache->store(def.name, fp, def.serialize(value));
  return value;
}

/// `demand.profile`: the synthetic profile for `config`, keyed on it.
[[nodiscard]] StageDef<demand::DemandProfile> demand_profile_stage(
    const demand::GeneratorConfig& config);

/// `core.analysis`: run_full_analysis over `profile` at the default model
/// and sweep, keyed on both and on the serialized profile bytes.
[[nodiscard]] StageDef<core::AnalysisResults> analysis_stage(
    const demand::DemandProfile& profile);

/// `market.report`: `simulation` run over `profile`, which must be the
/// profile generated from `gen` — the key is `gen` plus the market config.
[[nodiscard]] StageDef<market::MarketReport> market_report_stage(
    const demand::GeneratorConfig& gen,
    const market::MarketSimulation& simulation,
    const demand::DemandProfile& profile);

/// `sim.epochs`: the coverage trace of `config` over `profile` on the
/// global executor, keyed on the config and the serialized profile bytes.
[[nodiscard]] StageDef<std::vector<sim::EpochCoverage>> sim_epochs_stage(
    const sim::SimulationConfig& config, const demand::DemandProfile& profile);

}  // namespace leodivide::snapshot
