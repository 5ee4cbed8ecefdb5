// Integration tests: full pipelines across modules, pinning the paper's
// published findings end to end.

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "leodivide/core/report.hpp"
#include "leodivide/core/scenario.hpp"
#include "leodivide/demand/calibration.hpp"
#include "leodivide/demand/generator.hpp"
#include "leodivide/orbit/density.hpp"
#include "leodivide/sim/simulation.hpp"
#include "leodivide/stats/percentile.hpp"

namespace leodivide {
namespace {

const demand::DemandProfile& national_profile() {
  static const demand::DemandProfile profile =
      demand::SyntheticGenerator(demand::GeneratorConfig{}).generate_profile();
  return profile;
}

const core::AnalysisResults& national_results() {
  static const core::AnalysisResults results =
      core::run_full_analysis(national_profile());
  return results;
}

// ---- The paper's four findings, end to end ------------------------------

TEST(PaperFindings, F1_OversubscriptionTradeoff) {
  const auto& f1 = national_results().f1;
  // "adopting oversubscription ratios 75% higher than federal guidelines":
  // 35:1 vs 20:1.
  EXPECT_NEAR(f1.peak_oversubscription / core::kFccOversubscriptionCap, 1.75,
              0.05);
  // "serve 99.89% of total locations (all but ~5128)".
  EXPECT_NEAR(f1.servable_fraction_at_cap, 0.9989, 0.0001);
  // "22,428 locations (0.48% of total) served at rates higher than 20:1".
  EXPECT_EQ(f1.locations_above_cap, 22428U);
}

TEST(PaperFindings, F2_ConstellationMustExceed40k) {
  // "to stay within acceptable levels of oversubscription ... beamspread
  // factor less than 2 — which correlates to a constellation size of over
  // 40,000 satellites".
  const auto& table2 = national_results().table2;
  const auto row2 = table2[1];  // beamspread 2
  EXPECT_NEAR(row2.beamspread, 2.0, 1e-12);
  EXPECT_GT(row2.satellites_capped, 40000.0);
  // "more than 32,000 additional satellites" beyond the ~8000 deployed.
  EXPECT_GT(row2.satellites_capped - 8000.0, 32000.0);
}

TEST(PaperFindings, F3_DiminishingReturnsInTheLongTail) {
  // "connecting the final ~3000 locations requires deploying from a couple
  // hundred to a couple thousand of additional satellites".
  for (const auto& curve : national_results().fig3) {
    // leolint:allow(float-eq): oversub is assigned exactly from 20.0
    if (curve.oversub != 20.0) continue;
    const double at_floor = core::satellites_for_unserved_budget(
        curve.points, 1000000ULL);
    const double full = curve.points.front().satellites;
    EXPECT_GT(full - at_floor, 200.0)
        << "beamspread " << curve.beamspread;
  }
}

TEST(PaperFindings, F4_AffordabilityGap) {
  const auto& fig4 = national_results().fig4;
  // Order: Xfinity, Spectrum, Starlink w/ Lifeline, Starlink.
  EXPECT_LE(fig4[0].fraction_unable, 0.0001);
  EXPECT_LE(fig4[1].fraction_unable, 0.0001);
  EXPECT_NEAR(fig4[2].locations_unable, 3.0e6, 0.1e6);
  EXPECT_NEAR(fig4[3].fraction_unable, 0.745, 0.005);
  EXPECT_NEAR(fig4[3].locations_unable, 3.5e6, 0.1e6);
}

// ---- Figure 1 end to end --------------------------------------------------

TEST(Fig1, DistributionStatistics) {
  const auto counts = national_profile().counts_as_doubles();
  EXPECT_NEAR(stats::percentile(counts, 90.0), 552.0, 15.0);
  EXPECT_NEAR(stats::percentile(counts, 99.0), 1437.0, 40.0);
  EXPECT_DOUBLE_EQ(*std::max_element(counts.begin(), counts.end()), 5998.0);
}

// ---- Table 2 cross-validation: calibrated K vs dataset-derived ------------

TEST(Table2, CalibratedAndDerivedAgree) {
  const core::SizingModel model;
  for (double s : {1.0, 2.0, 5.0, 10.0, 15.0}) {
    const double derived =
        core::size_full_service(national_profile(), model, s).satellites;
    const double calibrated = core::satellites_from_k(
        model, demand::paper::kKFullService, s, 4);
    EXPECT_NEAR(derived, calibrated, calibrated * 0.005);
  }
}

// ---- CSV persistence round trip through the full analysis -----------------

TEST(Pipeline, CsvRoundTripPreservesFullAnalysis) {
  const demand::SyntheticGenerator gen({.seed = 13, .scale = 0.01});
  const demand::DemandProfile profile = gen.generate_profile();
  std::ostringstream cells_out, counties_out;
  profile.save_csv(cells_out, counties_out);
  std::istringstream cells_in(cells_out.str()),
      counties_in(counties_out.str());
  const demand::DemandProfile loaded =
      demand::DemandProfile::load_csv(cells_in, counties_in);

  const core::SizingModel model;
  // CSV stores coordinates with 6 decimal places; the derived constellation
  // size is continuous in the binding latitude, so allow sub-satellite
  // rounding error.
  EXPECT_NEAR(core::size_full_service(profile, model, 5.0).satellites,
              core::size_full_service(loaded, model, 5.0).satellites, 1.0);
}

// ---- Analytic density vs the orbital simulator -----------------------------

TEST(CrossValidation, AnalyticDensityMatchesPropagatedShell) {
  // The sizing model hinges on rho(phi); check it against the actual
  // Walker-shell propagation at the paper's binding latitude.
  const orbit::WalkerShell shell = orbit::starlink_shell1();
  const auto empirical = orbit::empirical_density_per_km2(shell, 300, 60);
  // Band containing 37 degrees: [36, 39).
  const std::size_t band = static_cast<std::size_t>((37.0 + 90.0) / 3.0);
  const double analytic =
      orbit::surface_density_per_km2(shell.total_sats(), 37.5, 53.0);
  EXPECT_NEAR(empirical[band], analytic, analytic * 0.1);
}

TEST(CrossValidation, SimulatorConfirmsCurrentShellIsInsufficient) {
  // The paper's core claim: today's constellation cannot serve the national
  // demand profile at acceptable oversubscription. Run shell 1 against a
  // 2%-scale profile and confirm coverage is well below 100%.
  // The shortfall only appears at full demand density: a sparse subsample
  // fits easily in shell 1's beam budget.
  sim::SimulationConfig config;
  config.duration_s = 120.0;
  config.step_s = 120.0;
  config.scheduler.beamspread = 5;
  const sim::SimulationReport report =
      sim::Simulation(config, national_profile()).run_report();
  EXPECT_LT(report.mean_cell_coverage, 0.9);
  EXPECT_GT(report.mean_cell_coverage, 0.05);
}

// ---- Report rendering covers the whole analysis ----------------------------

TEST(Reporting, FullReportMentionsPaperHeadlines) {
  const std::string report = core::render_report(national_results());
  EXPECT_NE(report.find("17.325"), std::string::npos);
  EXPECT_NE(report.find("99.89%"), std::string::npos);
  EXPECT_NE(report.find("5,103"), std::string::npos);
}

}  // namespace
}  // namespace leodivide

// Appended: cross-module extension checks.
#include "leodivide/core/backhaul.hpp"
#include "leodivide/core/economics.hpp"
#include "leodivide/core/uplink.hpp"
#include "leodivide/orbit/shells.hpp"

namespace leodivide {
namespace {

TEST(Extensions, UplinkTightensEveryPaperCell) {
  // For every cell in the calibrated profile the uplink constraint must be
  // at least as tight as the downlink one (constant ratio > 1).
  const core::SatelliteCapacityModel down;
  const core::UplinkModel up;
  for (std::uint32_t locs : {1U, 552U, 1437U, 3465U, 5998U}) {
    const auto r = core::analyze_uplink(down, up, locs);
    EXPECT_GT(r.uplink_oversubscription,
              r.downlink_oversubscription);
  }
}

TEST(Extensions, ShellDesignOrderingAtBindingLatitude) {
  // The shell-design ablation's ordering is stable: for the binding
  // latitude ~36.4 deg, required fleet grows with inclination.
  const core::SizingModel model;
  const auto binding =
      core::size_with_cap(national_results().f1.total_locations == 0
                              ? national_profile()
                              : national_profile(),
                          model, 1.0, 20.0);
  const double area = model.cell_area_km2 * 21.0;  // 1 + 20*1 cells
  double prev = 0.0;
  for (double incl : {43.0, 53.0, 70.0}) {
    const double n = orbit::constellation_size_for_density(
        1.0 / area, binding.binding_lat_deg, incl);
    EXPECT_GT(n, prev);
    prev = n;
  }
}

TEST(Extensions, EconomicsConsistentWithTable2) {
  // The full capped deployment's annual cost equals Table 2's satellite
  // count amortised by the cost model.
  const core::SizingModel model;
  const core::CostModel cost;
  const auto curve =
      core::longtail_curve(national_profile(), model, 10.0, 20.0);
  const auto econ = core::longtail_economics(
      curve, national_profile().total_locations(), cost);
  const double n_full =
      core::size_with_cap(national_profile(), model, 10.0, 20.0).satellites;
  EXPECT_NEAR(econ.back().annual_cost_usd,
              cost.annual_cost_usd(n_full), 1.0);
}

TEST(Extensions, Gen1MixtureCoversConusButNotEnough) {
  // Today's authorised Gen1 mixture (4,408 satellites) provides density at
  // the binding latitude far below the Table-2 requirement.
  const orbit::MultiShellConstellation gen1 = orbit::starlink_gen1();
  const core::SizingModel model;
  const double needed_density =
      1.0 / (model.cell_area_km2 * 21.0);  // one satellite per 21 cells
  const double required = gen1.size_for_density(needed_density, 36.4);
  EXPECT_GT(required, 10.0 * gen1.total_sats());
}

}  // namespace
}  // namespace leodivide
