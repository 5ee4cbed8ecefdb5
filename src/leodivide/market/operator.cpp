#include "leodivide/market/operator.hpp"

#include <bit>
#include <cmath>
#include <stdexcept>

namespace leodivide::market {

namespace {

void require_finite(double v, const char* what) {
  if (!std::isfinite(v)) {
    throw std::invalid_argument(std::string("OperatorConfig: non-finite ") +
                                what);
  }
}

}  // namespace

spectrum::SpectrumPlan OperatorConfig::spectrum() const {
  return spectrum::SpectrumPlan(bands);
}

core::SizingModel OperatorConfig::sizing_model() const {
  core::SizingModel model;
  model.capacity = core::SatelliteCapacityModel(spectrum::BeamPlan(
      spectrum(), beams_per_full_cell, spectral_efficiency_bps_hz));
  model.inclination_deg = sizing_inclination_deg;
  return model;
}

core::SizingModel OperatorConfig::sizing_model(double spectrum_share) const {
  if (!std::isfinite(spectrum_share) || spectrum_share <= 0.0 ||
      spectrum_share > 1.0) {
    throw std::invalid_argument("sizing_model: share outside (0, 1]");
  }
  // A full share must not re-derive band edges (lo + (hi - lo) is not
  // guaranteed to round back to hi): return the unscaled model exactly.
  if (std::bit_cast<std::uint64_t>(spectrum_share) ==
      std::bit_cast<std::uint64_t>(1.0)) {
    return sizing_model();
  }
  std::vector<spectrum::Band> scaled = bands;
  for (spectrum::Band& band : scaled) {
    if (band.usage == spectrum::BeamUsage::kUserDownlink ||
        band.usage == spectrum::BeamUsage::kUserOrGatewayDownlink) {
      band.hi_ghz = band.lo_ghz + (band.hi_ghz - band.lo_ghz) * spectrum_share;
    }
  }
  core::SizingModel model;
  model.capacity = core::SatelliteCapacityModel(
      spectrum::BeamPlan(spectrum::SpectrumPlan(std::move(scaled)),
                         beams_per_full_cell, spectral_efficiency_bps_hz));
  model.inclination_deg = sizing_inclination_deg;
  return model;
}

void validate(const OperatorConfig& config) {
  if (config.name.empty()) {
    throw std::invalid_argument("OperatorConfig: empty name");
  }
  if (config.shells.empty()) {
    throw std::invalid_argument("OperatorConfig: no shells");
  }
  for (const orbit::WalkerShell& shell : config.shells) {
    require_finite(shell.inclination_deg, "shell inclination");
    require_finite(shell.altitude_km, "shell altitude");
    if (shell.inclination_deg <= 0.0 || shell.inclination_deg >= 180.0 ||
        shell.altitude_km <= 0.0 || shell.planes == 0 ||
        shell.sats_per_plane == 0) {
      throw std::invalid_argument("OperatorConfig: malformed shell");
    }
  }
  // SpectrumPlan validates band shapes (non-empty, positive widths).
  const spectrum::SpectrumPlan plan = config.spectrum();
  if (plan.user_downlink_mhz() <= 0.0) {
    throw std::invalid_argument("OperatorConfig: no user-downlink spectrum");
  }
  if (config.beams_per_full_cell == 0 ||
      config.beams_per_full_cell > plan.user_beams()) {
    throw std::invalid_argument(
        "OperatorConfig: beams_per_full_cell outside [1, user_beams]");
  }
  require_finite(config.spectral_efficiency_bps_hz, "spectral efficiency");
  if (config.spectral_efficiency_bps_hz <= 0.0) {
    throw std::invalid_argument(
        "OperatorConfig: non-positive spectral efficiency");
  }
  require_finite(config.sizing_inclination_deg, "sizing inclination");
  if (config.sizing_inclination_deg <= 0.0 ||
      config.sizing_inclination_deg >= 180.0) {
    throw std::invalid_argument("OperatorConfig: bad sizing inclination");
  }
  if (config.plan.name.empty()) {
    throw std::invalid_argument("OperatorConfig: unnamed service plan");
  }
  require_finite(config.plan.monthly_usd, "plan price");
  if (config.plan.monthly_usd < 0.0) {
    throw std::invalid_argument("OperatorConfig: negative plan price");
  }
  // annual_cost_usd(0) exercises every cost-parameter check.
  (void)config.costs.annual_cost_usd(0.0);
}

OperatorConfig starlink_operator() {
  OperatorConfig config;
  config.name = "starlink";
  config.shells = orbit::starlink_gen1().shells();
  config.bands = spectrum::starlink_schedule_s().bands();
  config.beams_per_full_cell = 4;
  config.spectral_efficiency_bps_hz = spectrum::kPaperSpectralEfficiency;
  config.sizing_inclination_deg = 53.0;
  config.plan = afford::starlink_residential();
  config.costs = core::CostModel{.satellite_capex_usd = 500'000.0,
                                 .launch_capex_usd = 250'000.0,
                                 .ground_capex_usd = 150e6,
                                 .satellite_lifetime_years = 5.0,
                                 .annual_opex_fraction = 0.08};
  return config;
}

OperatorConfig oneweb_operator() {
  OperatorConfig config;
  config.name = "oneweb";
  config.shells = {{.inclination_deg = 87.9,
                    .altitude_km = 1200.0,
                    .planes = 12,
                    .sats_per_plane = 49,
                    .phasing = 1}};
  config.bands = {{.name = "10.7-12.7 GHz",
                   .lo_ghz = 10.70,
                   .hi_ghz = 12.70,
                   .beams = 16,
                   .usage = spectrum::BeamUsage::kUserDownlink},
                  {.name = "17.8-18.6 GHz",
                   .lo_ghz = 17.80,
                   .hi_ghz = 18.60,
                   .beams = 4,
                   .usage = spectrum::BeamUsage::kGatewayDownlink}};
  config.beams_per_full_cell = 2;
  config.spectral_efficiency_bps_hz = 3.5;
  config.sizing_inclination_deg = 87.9;
  config.plan = afford::ServicePlan{
      .name = "oneweb_community",
      .monthly_usd = 99.0,
      .speeds = {.down_mbps = 150.0, .up_mbps = 20.0}};
  config.costs = core::CostModel{.satellite_capex_usd = 1'000'000.0,
                                 .launch_capex_usd = 600'000.0,
                                 .ground_capex_usd = 80e6,
                                 .satellite_lifetime_years = 7.0,
                                 .annual_opex_fraction = 0.10};
  return config;
}

OperatorConfig kuiper_operator() {
  OperatorConfig config;
  config.name = "kuiper";
  config.shells = {{.inclination_deg = 51.9,
                    .altitude_km = 630.0,
                    .planes = 34,
                    .sats_per_plane = 34,
                    .phasing = 1},
                   {.inclination_deg = 42.0,
                    .altitude_km = 610.0,
                    .planes = 36,
                    .sats_per_plane = 36,
                    .phasing = 1},
                   {.inclination_deg = 33.0,
                    .altitude_km = 590.0,
                    .planes = 28,
                    .sats_per_plane = 28,
                    .phasing = 1}};
  config.bands = {{.name = "17.7-18.6 GHz",
                   .lo_ghz = 17.70,
                   .hi_ghz = 18.60,
                   .beams = 8,
                   .usage = spectrum::BeamUsage::kUserDownlink},
                  {.name = "18.8-19.3 GHz",
                   .lo_ghz = 18.80,
                   .hi_ghz = 19.30,
                   .beams = 4,
                   .usage = spectrum::BeamUsage::kUserDownlink},
                  {.name = "19.7-20.2 GHz",
                   .lo_ghz = 19.70,
                   .hi_ghz = 20.20,
                   .beams = 4,
                   .usage = spectrum::BeamUsage::kUserDownlink}};
  config.beams_per_full_cell = 3;
  config.spectral_efficiency_bps_hz = 4.2;
  config.sizing_inclination_deg = 51.9;
  config.plan = afford::ServicePlan{
      .name = "kuiper_residential",
      .monthly_usd = 80.0,
      .speeds = {.down_mbps = 400.0, .up_mbps = 20.0}};
  config.costs = core::CostModel{.satellite_capex_usd = 750'000.0,
                                 .launch_capex_usd = 400'000.0,
                                 .ground_capex_usd = 120e6,
                                 .satellite_lifetime_years = 7.0,
                                 .annual_opex_fraction = 0.09};
  return config;
}

std::vector<OperatorConfig> default_market() {
  return {starlink_operator(), oneweb_operator(), kuiper_operator()};
}

}  // namespace leodivide::market
