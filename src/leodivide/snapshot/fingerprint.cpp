#include "leodivide/snapshot/fingerprint.hpp"

#include <bit>

#include "leodivide/core/economics.hpp"
#include "leodivide/core/scenario.hpp"
#include "leodivide/demand/generator.hpp"
#include "leodivide/market/simulation.hpp"
#include "leodivide/sim/simulation.hpp"

namespace leodivide::snapshot {

namespace {

// Type tags: structural separators so differently-typed mixes of the same
// byte pattern hash apart.
constexpr std::uint8_t kTagBytes = 1;
constexpr std::uint8_t kTagU64 = 2;
constexpr std::uint8_t kTagF64 = 3;

}  // namespace

Fingerprint& Fingerprint::tag(std::uint8_t t) {
  h_ ^= t;
  h_ *= kFnvPrime;
  return *this;
}

Fingerprint& Fingerprint::mix(std::string_view bytes) {
  tag(kTagBytes);
  mix_u64(bytes.size());
  h_ = fnv1a64(bytes, h_);
  return *this;
}

Fingerprint& Fingerprint::mix_u64(std::uint64_t v) {
  tag(kTagU64);
  for (int b = 0; b < 8; ++b) {
    h_ ^= static_cast<std::uint8_t>(v >> (8 * b));
    h_ *= kFnvPrime;
  }
  return *this;
}

Fingerprint& Fingerprint::mix_f64(double v) {
  tag(kTagF64);
  std::uint64_t bits = std::bit_cast<std::uint64_t>(v);
  for (int b = 0; b < 8; ++b) {
    h_ ^= static_cast<std::uint8_t>(bits >> (8 * b));
    h_ *= kFnvPrime;
  }
  return *this;
}

std::string Fingerprint::hex() const {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 0; i < 16; ++i) {
    out[static_cast<std::size_t>(i)] =
        kDigits[(h_ >> (60 - 4 * i)) & 0xF];
  }
  return out;
}

Fingerprint stage_fingerprint(std::string_view stage) {
  Fingerprint fp;
  fp.mix("ldsnap").mix_u64(kFormatVersion).mix(stage);
  return fp;
}

void mix(Fingerprint& fp, const demand::GeneratorConfig& config) {
  fp.mix_u64(config.seed)
      .mix_i64(config.resolution)
      .mix_i64(config.county_resolution)
      .mix_f64(config.scale)
      .mix_bool(config.plant_peak_cells)
      .mix_f64(config.heavy_cell_min_lat_deg);
}

void mix(Fingerprint& fp, const core::SizingModel& model) {
  const spectrum::BeamPlan& plan = model.capacity.plan();
  fp.mix_f64(plan.full_cell_capacity_gbps())
      .mix_f64(plan.spectral_efficiency())
      .mix_u64(plan.user_beams())
      .mix_u64(plan.beams_per_full_cell())
      .mix_f64(model.inclination_deg)
      .mix_f64(model.cell_area_km2);
}

void mix(Fingerprint& fp, const core::AnalysisConfig& config) {
  auto mix_vec = [&fp](const std::vector<double>& v) {
    fp.mix_u64(v.size());
    for (double x : v) fp.mix_f64(x);
  };
  mix_vec(config.table2_beamspreads);
  mix_vec(config.fig2_beamspreads);
  mix_vec(config.fig2_oversubs);
  fp.mix_u64(config.fig3_curves.size());
  for (const auto& [s, o] : config.fig3_curves) {
    fp.mix_f64(s).mix_f64(o);
  }
  fp.mix_f64(config.oversub_cap);
}

void mix(Fingerprint& fp, const sim::SimulationConfig& config) {
  fp.mix_f64(config.shell.inclination_deg)
      .mix_f64(config.shell.altitude_km)
      .mix_u64(config.shell.planes)
      .mix_u64(config.shell.sats_per_plane)
      .mix_u64(config.shell.phasing)
      .mix_u64(config.scheduler.beams_per_satellite)
      .mix_u64(config.scheduler.beamspread)
      .mix_f64(config.scheduler.min_elevation_deg)
      .mix_u64(static_cast<std::uint64_t>(config.scheduler.strategy))
      .mix_f64(config.duration_s)
      .mix_f64(config.step_s)
      .mix_f64(config.oversub_target);
}

void mix(Fingerprint& fp, const core::CostModel& cost) {
  fp.mix_f64(cost.satellite_capex_usd)
      .mix_f64(cost.launch_capex_usd)
      .mix_f64(cost.ground_capex_usd)
      .mix_f64(cost.satellite_lifetime_years)
      .mix_f64(cost.annual_opex_fraction);
}

void mix(Fingerprint& fp, const market::OperatorConfig& config) {
  fp.mix(config.name);
  fp.mix_u64(config.shells.size());
  for (const orbit::WalkerShell& s : config.shells) {
    fp.mix_f64(s.inclination_deg)
        .mix_f64(s.altitude_km)
        .mix_u64(s.planes)
        .mix_u64(s.sats_per_plane)
        .mix_u64(s.phasing);
  }
  fp.mix_u64(config.bands.size());
  for (const spectrum::Band& b : config.bands) {
    fp.mix(b.name)
        .mix_f64(b.lo_ghz)
        .mix_f64(b.hi_ghz)
        .mix_u64(b.beams)
        .mix_u64(static_cast<std::uint64_t>(b.usage));
  }
  fp.mix_u64(config.beams_per_full_cell)
      .mix_f64(config.spectral_efficiency_bps_hz)
      .mix_f64(config.sizing_inclination_deg)
      .mix(config.plan.name)
      .mix_f64(config.plan.monthly_usd)
      .mix_f64(config.plan.speeds.down_mbps)
      .mix_f64(config.plan.speeds.up_mbps);
  mix(fp, config.costs);
}

void mix(Fingerprint& fp, const market::SpectrumSplitConfig& config) {
  fp.mix_u64(static_cast<std::uint64_t>(config.policy))
      .mix_f64(config.zone_deg)
      .mix_f64(config.priority_weight);
}

void mix(Fingerprint& fp, const market::MarketConfig& config) {
  fp.mix_u64(config.operators.size());
  for (const market::OperatorConfig& op : config.operators) mix(fp, op);
  mix(fp, config.split);
  fp.mix_f64(config.beamspread).mix_f64(config.oversub_cap);
}

}  // namespace leodivide::snapshot
