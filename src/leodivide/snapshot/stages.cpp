#include "leodivide/snapshot/stages.hpp"

#include "leodivide/runtime/executor.hpp"
#include "leodivide/snapshot/artifacts.hpp"

namespace leodivide::snapshot {

StageDef<demand::DemandProfile> demand_profile_stage(
    const demand::GeneratorConfig& config) {
  return {"demand.profile",
          [config](Fingerprint& fp) { mix(fp, config); },
          [config] {
            return demand::SyntheticGenerator{config}.generate_profile();
          },
          [](const demand::DemandProfile& p) { return serialize(p); },
          deserialize_profile};
}

StageDef<core::AnalysisResults> analysis_stage(
    const demand::DemandProfile& profile) {
  const demand::DemandProfile* p = &profile;
  return {"core.analysis",
          [p](Fingerprint& fp) {
            mix(fp, core::SizingModel{});
            mix(fp, core::AnalysisConfig{});
            fp.mix(serialize(*p));
          },
          [p] { return core::run_full_analysis(*p); },
          [](const core::AnalysisResults& r) { return serialize(r); },
          deserialize_analysis};
}

StageDef<market::MarketReport> market_report_stage(
    const demand::GeneratorConfig& gen,
    const market::MarketSimulation& simulation,
    const demand::DemandProfile& profile) {
  const market::MarketSimulation* s = &simulation;
  const demand::DemandProfile* p = &profile;
  return {"market.report",
          [gen, s](Fingerprint& fp) {
            mix(fp, gen);
            mix(fp, s->config());
          },
          [s, p] { return s->run(*p); },
          [](const market::MarketReport& r) { return serialize(r); },
          deserialize_market_report};
}

StageDef<std::vector<sim::EpochCoverage>> sim_epochs_stage(
    const sim::SimulationConfig& config, const demand::DemandProfile& profile) {
  const demand::DemandProfile* p = &profile;
  return {"sim.epochs",
          [config, p](Fingerprint& fp) {
            mix(fp, config);
            fp.mix(serialize(*p));
          },
          [config, p] {
            return sim::Simulation(config, *p).run(runtime::global_executor());
          },
          [](const std::vector<sim::EpochCoverage>& t) { return serialize(t); },
          deserialize_epochs};
}

}  // namespace leodivide::snapshot
