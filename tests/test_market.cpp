// Unit tests for leodivide::market — operators, spectrum splits, fairness,
// and the market driver's two load-bearing guarantees: byte-identical
// results for every thread count / operator order, and bit-for-bit
// agreement with the single-operator core/ + afford/ pipeline when one
// Starlink operator runs under the exclusive policy.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "leodivide/afford/affordability.hpp"
#include "leodivide/core/beamspread.hpp"
#include "leodivide/core/economics.hpp"
#include "leodivide/core/longtail.hpp"
#include "leodivide/core/served_fraction.hpp"
#include "leodivide/core/sizing.hpp"
#include "leodivide/demand/generator.hpp"
#include "leodivide/market/market.hpp"
#include "leodivide/runtime/thread_pool.hpp"
#include "leodivide/snapshot/artifacts.hpp"

namespace leodivide::market {
namespace {

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

const demand::DemandProfile& small_profile() {
  static const demand::DemandProfile profile =
      demand::SyntheticGenerator({.seed = 7, .scale = 0.02})
          .generate_profile();
  return profile;
}

// The $/location-year a market reports for an operator: the annual cost of
// the long tail's cheapest deployment (its last point) per location that
// deployment serves.
double cheapest_cost_per_location_year(const demand::DemandProfile& profile,
                                       const core::SizingModel& model,
                                       const MarketConfig& config,
                                       const core::CostModel& costs) {
  const core::LongTailPoint cheapest =
      core::longtail_curve(profile, model, config.beamspread,
                           config.oversub_cap)
          .back();
  return costs.annual_cost_usd(cheapest.satellites) /
         static_cast<double>(profile.total_locations() -
                             cheapest.locations_unserved);
}

// ---------------------------------------------------------------- operator ----

TEST(OperatorTest, PresetsValidate) {
  for (const OperatorConfig& op : default_market()) {
    EXPECT_NO_THROW(validate(op)) << op.name;
  }
}

TEST(OperatorTest, StarlinkSizingModelMatchesDefaultBitForBit) {
  // The strict-generalization anchor: the Starlink preset's model must be
  // indistinguishable from core::SizingModel{}.
  const core::SizingModel preset = starlink_operator().sizing_model();
  const core::SizingModel def{};
  EXPECT_TRUE(same_bits(preset.capacity.plan().full_cell_capacity_gbps(),
                        def.capacity.plan().full_cell_capacity_gbps()));
  EXPECT_TRUE(same_bits(preset.capacity.plan().spectral_efficiency(),
                        def.capacity.plan().spectral_efficiency()));
  EXPECT_EQ(preset.capacity.plan().user_beams(),
            def.capacity.plan().user_beams());
  EXPECT_EQ(preset.capacity.plan().beams_per_full_cell(),
            def.capacity.plan().beams_per_full_cell());
  EXPECT_TRUE(same_bits(preset.inclination_deg, def.inclination_deg));
  EXPECT_TRUE(same_bits(preset.cell_area_km2, def.cell_area_km2));
}

TEST(OperatorTest, FullShareReturnsUnscaledModel) {
  const OperatorConfig op = starlink_operator();
  const core::SizingModel full = op.sizing_model();
  const core::SizingModel at_one = op.sizing_model(1.0);
  EXPECT_TRUE(same_bits(full.capacity.plan().full_cell_capacity_gbps(),
                        at_one.capacity.plan().full_cell_capacity_gbps()));
  // A genuine scale halves the user-downlink capacity.
  const core::SizingModel half = op.sizing_model(0.5);
  EXPECT_LT(half.capacity.plan().full_cell_capacity_gbps(),
            full.capacity.plan().full_cell_capacity_gbps());
}

// The beam plan fixes its user beams and cell and beam capacities at
// construction; they must equal the band-table derivation bit for bit, for
// every preset at its full share and at the shares a split gives it.
TEST(OperatorTest, BeamPlanConstantsMatchBandTable) {
  const std::vector<OperatorConfig> operators = default_market();
  const SpectrumSplit proportional(operators,
                                   {.policy = SplitPolicy::kProportional});
  for (std::size_t i = 0; i < operators.size(); ++i) {
    for (const double share :
         {1.0, 0.5, 0.3, proportional.economic_share(i)}) {
      const core::SizingModel model = operators[i].sizing_model(share);
      const spectrum::BeamPlan& plan = model.capacity.plan();
      const double full = spectrum::capacity_gbps(
          plan.spectrum().user_downlink_mhz(), plan.spectral_efficiency());
      EXPECT_EQ(plan.user_beams(), plan.spectrum().user_beams());
      EXPECT_TRUE(same_bits(plan.full_cell_capacity_gbps(), full))
          << operators[i].name << " share " << share;
      EXPECT_TRUE(same_bits(
          plan.per_beam_capacity_gbps(),
          full / static_cast<double>(plan.beams_per_full_cell())))
          << operators[i].name << " share " << share;
    }
  }
}

TEST(OperatorTest, SizingModelRejectsBadShare) {
  const OperatorConfig op = starlink_operator();
  EXPECT_THROW(op.sizing_model(0.0), std::invalid_argument);
  EXPECT_THROW(op.sizing_model(1.5), std::invalid_argument);
  EXPECT_THROW(op.sizing_model(-0.5), std::invalid_argument);
}

TEST(OperatorTest, ValidationRejectsMalformedConfigs) {
  {
    OperatorConfig op = starlink_operator();
    op.name.clear();
    EXPECT_THROW(validate(op), std::invalid_argument);
  }
  {
    OperatorConfig op = starlink_operator();
    op.shells.clear();
    EXPECT_THROW(validate(op), std::invalid_argument);
  }
  {
    OperatorConfig op = starlink_operator();
    op.bands.clear();
    EXPECT_THROW(validate(op), std::invalid_argument);
  }
  {
    OperatorConfig op = starlink_operator();
    op.beams_per_full_cell = 0;
    EXPECT_THROW(validate(op), std::invalid_argument);
  }
  {
    OperatorConfig op = starlink_operator();
    op.spectral_efficiency_bps_hz = 0.0;
    EXPECT_THROW(validate(op), std::invalid_argument);
  }
  {
    OperatorConfig op = starlink_operator();
    op.plan.monthly_usd = -1.0;
    EXPECT_THROW(validate(op), std::invalid_argument);
  }
}

// ------------------------------------------------------------------- split ----

TEST(SplitTest, ExclusiveGivesEveryOperatorFullShare) {
  const SpectrumSplit split(default_market(), {});
  for (std::size_t o = 0; o < split.operator_count(); ++o) {
    EXPECT_TRUE(split.uniform(o));
    EXPECT_TRUE(same_bits(split.economic_share(o), 1.0));
    for (std::size_t p = 0; p < split.operator_count(); ++p) {
      EXPECT_TRUE(same_bits(split.share(o, p), 1.0)) << o << "," << p;
    }
  }
}

TEST(SplitTest, SingleOperatorAlwaysHasFullShare) {
  for (const SplitPolicy policy :
       {SplitPolicy::kExclusive, SplitPolicy::kProportional,
        SplitPolicy::kFairShare}) {
    const SpectrumSplit split({starlink_operator()}, {.policy = policy});
    EXPECT_TRUE(split.uniform(0));
    EXPECT_TRUE(same_bits(split.share(0, 0), 1.0)) << to_string(policy);
  }
}

// Two operators with one identical band each: a fully contested table.
std::vector<OperatorConfig> contested_pair() {
  OperatorConfig a = starlink_operator();
  a.name = "alpha";
  OperatorConfig b = starlink_operator();
  b.name = "beta";
  return {std::move(a), std::move(b)};
}

TEST(SplitTest, ProportionalHalvesContestedSpectrum) {
  const SpectrumSplit split(contested_pair(),
                            {.policy = SplitPolicy::kProportional});
  for (std::size_t o = 0; o < 2; ++o) {
    EXPECT_TRUE(split.uniform(o));
    EXPECT_DOUBLE_EQ(split.share(o, 0), 0.5);
    EXPECT_DOUBLE_EQ(split.economic_share(o), 0.5);
  }
}

TEST(SplitTest, FairShareGivesPriorityWeightInOwnZones) {
  const SpectrumSplit split(
      contested_pair(),
      {.policy = SplitPolicy::kFairShare, .priority_weight = 0.7});
  EXPECT_FALSE(split.uniform(0));
  EXPECT_DOUBLE_EQ(split.share(0, 0), 0.7);  // alpha in alpha's zones
  EXPECT_DOUBLE_EQ(split.share(0, 1), 0.3);  // alpha in beta's zones
  EXPECT_DOUBLE_EQ(split.share(1, 1), 0.7);
  EXPECT_DOUBLE_EQ(split.share(1, 0), 0.3);
  EXPECT_DOUBLE_EQ(split.economic_share(0), 0.5);  // zone average
}

TEST(SplitTest, FairShareUncontestedSpectrumStaysWhole) {
  // Starlink (Ku+Ka) vs OneWeb: their Ku tables overlap, Kuiper absent.
  // An operator pair with disjoint tables is untouched by the policy.
  OperatorConfig ku = starlink_operator();
  ku.name = "ku_only";
  ku.bands = {{"10.7-12.7", 10.7, 12.7, 16, spectrum::BeamUsage::kUserDownlink}};
  OperatorConfig ka = starlink_operator();
  ka.name = "ka_only";
  ka.bands = {{"17.8-18.6", 17.8, 18.6, 16, spectrum::BeamUsage::kUserDownlink}};
  const SpectrumSplit split({ku, ka}, {.policy = SplitPolicy::kFairShare});
  for (std::size_t o = 0; o < 2; ++o) {
    EXPECT_TRUE(split.uniform(o));
    EXPECT_TRUE(same_bits(split.share(o, 0), 1.0));
    EXPECT_TRUE(same_bits(split.share(o, 1), 1.0));
  }
}

TEST(SplitTest, PriorityRotatesThroughLatitudeZones) {
  const SpectrumSplit split(
      contested_pair(),
      {.policy = SplitPolicy::kFairShare, .zone_deg = 5.0});
  // Zone k = floor((lat+90)/5), priority = k mod 2.
  EXPECT_EQ(split.priority_operator(-88.0), 0U);  // zone 0
  EXPECT_EQ(split.priority_operator(-83.0), 1U);  // zone 1
  EXPECT_EQ(split.priority_operator(-78.0), 0U);  // zone 2
  EXPECT_EQ(split.priority_operator(42.5), 26U % 2);
  EXPECT_THROW((void)split.priority_operator(91.0), std::invalid_argument);
}

TEST(SplitTest, NonFairShareIgnoresLatitude) {
  const SpectrumSplit split(contested_pair(),
                            {.policy = SplitPolicy::kProportional});
  EXPECT_EQ(split.priority_operator(-88.0), 0U);
  EXPECT_EQ(split.priority_operator(42.5), 0U);
}

TEST(SplitTest, ConfigValidationRejectsBadParameters) {
  EXPECT_THROW(validate(SpectrumSplitConfig{.zone_deg = 0.0}),
               std::invalid_argument);
  EXPECT_THROW(validate(SpectrumSplitConfig{.zone_deg = 200.0}),
               std::invalid_argument);
  EXPECT_THROW(validate(SpectrumSplitConfig{.priority_weight = 1.5}),
               std::invalid_argument);
  EXPECT_THROW(validate(SpectrumSplitConfig{.priority_weight = -0.1}),
               std::invalid_argument);
  EXPECT_NO_THROW(validate(SpectrumSplitConfig{}));
}

// ---------------------------------------------------------------- fairness ----

TEST(JainTest, KnownValues) {
  EXPECT_DOUBLE_EQ(jain_index({5.0, 5.0, 5.0}), 1.0);   // all equal
  EXPECT_DOUBLE_EQ(jain_index({1.0, 0.0, 0.0}), 1.0 / 3.0);  // one-hot
  EXPECT_DOUBLE_EQ(jain_index({0.0, 0.0}), 1.0);        // all-zero: equal
  EXPECT_DOUBLE_EQ(jain_index({}), 0.0);                // empty
  EXPECT_NEAR(jain_index({4.0, 2.0}), 36.0 / 40.0, 1e-12);
}

TEST(JainTest, RejectsNegativeAndNonFinite) {
  EXPECT_THROW((void)jain_index({1.0, -1.0}), std::invalid_argument);
  EXPECT_THROW((void)jain_index({1.0, std::nan("")}), std::invalid_argument);
}

// --------------------------------------------------------------- validation ----

TEST(MarketConfigTest, ValidationRejectsBadScenarios) {
  EXPECT_THROW(validate(MarketConfig{}), std::invalid_argument);  // empty
  {
    MarketConfig config;
    config.operators = {starlink_operator(), starlink_operator()};
    EXPECT_THROW(validate(config), std::invalid_argument);  // duplicate name
  }
  {
    MarketConfig config;
    config.operators = {starlink_operator()};
    config.beamspread = 0.5;
    EXPECT_THROW(validate(config), std::invalid_argument);
  }
  {
    MarketConfig config;
    config.operators = {starlink_operator()};
    config.oversub_cap = 0.0;
    EXPECT_THROW(validate(config), std::invalid_argument);
  }
  {
    MarketConfig config;
    config.operators = default_market();
    EXPECT_NO_THROW(validate(config));
  }
}

// A non-finite band edge fails validation as such: an infinite upper edge
// once gave OneWeb infinite capacity (every location served), and a NaN
// edge reached SpectrumSplit as "no user-downlink spectrum".
TEST(MarketConfigTest, ValidationRejectsNonFiniteBandEdges) {
  for (const double bad : {std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN()}) {
    for (const bool upper : {true, false}) {
      MarketConfig config;
      config.operators = default_market();
      spectrum::Band& band = config.operators[1].bands[0];
      (upper ? band.hi_ghz : band.lo_ghz) = bad;
      try {
        const MarketSimulation simulation(config);
        ADD_FAILURE() << "accepted edge " << bad;
      } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("non-finite edge"),
                  std::string::npos)
            << e.what();
      }
    }
  }
}

TEST(MarketSimulationTest, RejectsEmptyProfile) {
  MarketConfig config;
  config.operators = {starlink_operator()};
  const MarketSimulation simulation(std::move(config));
  demand::CountyTable counties;
  counties.add({"90001", {}, 50000.0, 0});
  const demand::DemandProfile empty({}, std::move(counties));
  EXPECT_THROW((void)simulation.run(empty), std::invalid_argument);
}

// ------------------------------------------------- golden: single operator ----

TEST(MarketGoldenTest, SingleStarlinkExclusiveReproducesCorePipeline) {
  const demand::DemandProfile& profile = small_profile();
  MarketConfig config;
  config.operators = {starlink_operator()};
  const MarketSimulation simulation(config);
  const MarketReport report = simulation.run(profile);
  ASSERT_EQ(report.operators.size(), 1U);
  const OperatorOutcome& out = report.operators[0];

  // Every number the single-operator pipeline produces must come back
  // bit-for-bit: the market layer is a strict generalization, not an
  // approximation of it.
  const core::SizingModel model{};
  EXPECT_EQ(out.full,
            core::size_full_service(profile, model, config.beamspread));
  EXPECT_EQ(out.capped, core::size_with_cap(profile, model, config.beamspread,
                                            config.oversub_cap));
  EXPECT_TRUE(same_bits(
      out.served_cell_fraction,
      core::served_cell_fraction(profile, model.capacity, config.beamspread,
                                 config.oversub_cap)));
  EXPECT_TRUE(same_bits(
      out.served_location_fraction,
      core::served_location_fraction(profile, model.capacity,
                                     config.beamspread, config.oversub_cap)));
  EXPECT_TRUE(same_bits(
      out.cost_per_location_year_usd,
      cheapest_cost_per_location_year(profile, model, config,
                                      starlink_operator().costs)));
  const afford::AffordabilityAnalyzer analyzer(profile);
  EXPECT_EQ(out.affordability,
            analyzer.evaluate(config.operators[0].plan));
  EXPECT_TRUE(same_bits(out.economic_share, 1.0));

  // Single operator: it wins every cell it serves; nothing is
  // split-limited.
  EXPECT_EQ(report.fairness.split_limited_cells, 0U);
  EXPECT_DOUBLE_EQ(report.fairness.jain_served_locations, 1.0);
}

// ------------------------------------------------------------- determinism ----

std::string run_serialized(const MarketConfig& config,
                           runtime::Executor& executor) {
  const MarketSimulation simulation(config);
  return snapshot::serialize(simulation.run(small_profile(), executor));
}

TEST(MarketDeterminismTest, ByteIdenticalAcrossThreadCounts) {
  for (const SplitPolicy policy :
       {SplitPolicy::kExclusive, SplitPolicy::kFairShare}) {
    MarketConfig config;
    config.operators = default_market();
    config.split.policy = policy;
    const std::string serial =
        run_serialized(config, runtime::serial_executor());
    // The market runs its operators plus the fairness pass as one batch of
    // four units: pools of 2 and 3 have fewer workers than units.
    for (const std::size_t threads : {1U, 2U, 3U, 4U, 8U}) {
      runtime::ThreadPool pool(threads);
      EXPECT_EQ(serial, run_serialized(config, pool))
          << to_string(policy) << " at " << threads << " threads";
    }
    // Called from inside a pool task, the batch runs inline on that task.
    runtime::ThreadPool pool4(4);
    std::string nested;
    pool4.run_tasks(1, [&](std::size_t) {
      nested = run_serialized(config, pool4);
    });
    EXPECT_EQ(serial, nested) << to_string(policy) << " nested in a task";
  }
}

TEST(MarketDeterminismTest, OperatorOrderOnlyPermutesOutput) {
  // Evaluation order must not change any operator's numbers. (cells_won
  // legitimately differs when the tie-break index order changes, so
  // compare per-operator outcomes and served tallies by name.)
  MarketConfig forward;
  forward.operators = default_market();
  forward.split.policy = SplitPolicy::kProportional;
  MarketConfig reversed = forward;
  std::reverse(reversed.operators.begin(), reversed.operators.end());

  const MarketReport a = MarketSimulation(forward).run(small_profile());
  const MarketReport b = MarketSimulation(reversed).run(small_profile());
  ASSERT_EQ(a.operators.size(), b.operators.size());
  for (const OperatorOutcome& ours : a.operators) {
    const auto it =
        std::find_if(b.operators.begin(), b.operators.end(),
                     [&ours](const OperatorOutcome& o) {
                       return o.name == ours.name;
                     });
    ASSERT_NE(it, b.operators.end()) << ours.name;
    EXPECT_EQ(ours, *it) << ours.name;
    const std::size_t ia =
        static_cast<std::size_t>(&ours - a.operators.data());
    const std::size_t ib =
        static_cast<std::size_t>(it - b.operators.begin());
    EXPECT_EQ(a.fairness.operators[ia].cells_served,
              b.fairness.operators[ib].cells_served);
    EXPECT_EQ(a.fairness.operators[ia].locations_served,
              b.fairness.operators[ib].locations_served);
  }
  EXPECT_EQ(a.fairness.unserved_cells, b.fairness.unserved_cells);
  EXPECT_EQ(a.fairness.unserved_locations, b.fairness.unserved_locations);
  EXPECT_EQ(a.fairness.capacity_limited_cells,
            b.fairness.capacity_limited_cells);
  EXPECT_EQ(a.fairness.split_limited_cells, b.fairness.split_limited_cells);
}

// -------------------------------------------------------- market invariants ----

MarketReport default_report(SplitPolicy policy) {
  MarketConfig config;
  config.operators = default_market();
  config.split.policy = policy;
  return MarketSimulation(std::move(config)).run(small_profile());
}

TEST(MarketReportTest, WinTalliesAndAttributionAreConsistent) {
  const MarketReport report = default_report(SplitPolicy::kFairShare);
  const std::size_t cells = small_profile().cell_count();

  std::uint64_t won_total = 0;
  for (const OperatorFairness& f : report.fairness.operators) {
    EXPECT_LE(f.cells_won, f.cells_served);
    won_total += f.cells_won;
  }
  EXPECT_EQ(won_total + report.fairness.unserved_cells, cells);
  EXPECT_EQ(report.fairness.capacity_limited_cells +
                report.fairness.split_limited_cells,
            report.fairness.unserved_cells);
}

TEST(MarketReportTest, SharingNeverServesMoreThanExclusive) {
  const MarketReport exclusive = default_report(SplitPolicy::kExclusive);
  const MarketReport shared = default_report(SplitPolicy::kProportional);
  for (std::size_t o = 0; o < exclusive.operators.size(); ++o) {
    EXPECT_LE(shared.operators[o].served_location_fraction,
              exclusive.operators[o].served_location_fraction)
        << exclusive.operators[o].name;
    // Less spectrum can only grow the capped fleet.
    EXPECT_GE(shared.operators[o].capped.satellites,
              exclusive.operators[o].capped.satellites)
        << exclusive.operators[o].name;
  }
  EXPECT_EQ(exclusive.fairness.split_limited_cells, 0U);
}

TEST(MarketReportTest, CostPerLocationYearIsCheapestDeploymentCost) {
  MarketConfig config;
  config.operators = default_market();
  for (const SplitPolicy policy :
       {SplitPolicy::kExclusive, SplitPolicy::kProportional,
        SplitPolicy::kFairShare}) {
    config.split.policy = policy;
    const MarketReport report = default_report(policy);
    ASSERT_EQ(report.operators.size(), config.operators.size());
    for (std::size_t o = 0; o < report.operators.size(); ++o) {
      const OperatorOutcome& op = report.operators[o];
      const OperatorConfig& preset = config.operators[o];
      const double expected = cheapest_cost_per_location_year(
          small_profile(), preset.sizing_model(op.economic_share), config,
          preset.costs);
      EXPECT_TRUE(same_bits(op.cost_per_location_year_usd, expected))
          << to_string(policy) << " " << op.name;
      EXPECT_GT(op.cost_per_location_year_usd, 0.0)
          << to_string(policy) << " " << op.name;
    }
  }
}

TEST(MarketReportTest, RenderMentionsEveryOperatorAndPolicy) {
  const MarketReport report = default_report(SplitPolicy::kProportional);
  const std::string text = render_market_report(report);
  EXPECT_NE(text.find("proportional"), std::string::npos);
  for (const OperatorOutcome& op : report.operators) {
    EXPECT_NE(text.find(op.name), std::string::npos) << op.name;
  }
  EXPECT_NE(text.find("Jain"), std::string::npos);
}

TEST(MarketReportTest, FullPriorityWeightStillRuns) {
  // priority_weight = 1: non-priority claimants get zero in contested
  // zones. The run must complete and attribute the casualties to the split.
  MarketConfig config;
  config.operators = contested_pair();
  config.split.policy = SplitPolicy::kFairShare;
  config.split.priority_weight = 1.0;
  const MarketReport report =
      MarketSimulation(std::move(config)).run(small_profile());
  ASSERT_EQ(report.operators.size(), 2U);
  // Fully contested tables: each operator can serve only its own zones.
  EXPECT_LT(report.operators[0].served_cell_fraction, 1.0);
}

// ------------------------------------------- single-beam fallback by zone ----

// One cell per (latitude, count), ids along a row, all in one county.
demand::DemandProfile zoned_profile(
    const std::vector<std::pair<double, std::uint32_t>>& lat_counts) {
  std::vector<demand::CellDemand> cells;
  std::uint64_t total = 0;
  for (const auto& [lat, count] : lat_counts) {
    const int q = static_cast<int>(cells.size());
    cells.push_back({hex::CellId(5, {q, 0}), {lat, -100.0}, count, 0});
    total += count;
  }
  demand::CountyTable counties;
  counties.add({"90001", {35.0, -100.0}, 50000.0, total});
  return demand::DemandProfile(std::move(cells), std::move(counties));
}

MarketConfig full_priority_fairshare() {
  MarketConfig config;
  config.operators = contested_pair();
  config.split.policy = SplitPolicy::kFairShare;
  config.split.priority_weight = 1.0;
  return config;
}

TEST(MarketFallbackTest, LargestCellWithSpectrumBindsOnOneBeam) {
  // No cell needs 2 beams at 20:1 (a beam carries 866 locations). The peak
  // cell sits in beta's zone, where alpha has no spectrum, so alpha's
  // single-beam binding cell is its largest cell with spectrum.
  const double alpha_lat = 32.5;
  const double beta_lat = 37.5;
  const MarketConfig config = full_priority_fairshare();
  const SpectrumSplit split(config.operators, config.split);
  const std::size_t alpha_zone = split.priority_operator(alpha_lat);
  const std::size_t beta_zone = split.priority_operator(beta_lat);
  ASSERT_EQ(alpha_zone, 0U);
  ASSERT_EQ(beta_zone, 1U);
  ASSERT_EQ(split.share(0, beta_zone), 0.0);
  ASSERT_EQ(split.share(1, alpha_zone), 0.0);

  const demand::DemandProfile profile = zoned_profile(
      {{alpha_lat, 300}, {beta_lat, 800}, {alpha_lat, 500}, {beta_lat, 200}});
  ASSERT_EQ(profile.peak_cell().index, 1U);
  const MarketReport report = MarketSimulation(config).run(profile);
  ASSERT_EQ(report.operators.size(), 2U);

  const core::SizingResult& alpha = report.operators[0].capped;
  EXPECT_EQ(alpha.binding_cell_index, 2U);
  EXPECT_EQ(alpha.beams_on_binding, 1U);
  EXPECT_TRUE(same_bits(alpha.binding_lat_deg, alpha_lat));
  EXPECT_TRUE(same_bits(
      alpha.satellites,
      core::satellites_for_binding_cell(
          config.operators[0].sizing_model(split.share(0, alpha_zone)),
          alpha_lat, config.beamspread, 1)));
  // Beta has spectrum over the peak cell, so its fallback is the peak.
  const core::SizingResult& beta = report.operators[1].capped;
  EXPECT_EQ(beta.binding_cell_index, 1U);
  EXPECT_EQ(beta.beams_on_binding, 1U);
}

TEST(MarketFallbackTest, ProfileWithoutUsableSpectrumThrows) {
  const double beta_lat = 37.5;
  const demand::DemandProfile profile =
      zoned_profile({{beta_lat, 300}, {beta_lat, 800}});
  try {
    (void)MarketSimulation(full_priority_fairshare()).run(profile);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("no usable spectrum"),
              std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace leodivide::market
