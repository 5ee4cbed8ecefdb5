// Unit tests for leodivide::afford — plans, income view, the 2% rule.

#include <gtest/gtest.h>

#include "leodivide/afford/affordability.hpp"
#include "leodivide/demand/calibration.hpp"
#include "leodivide/demand/generator.hpp"

namespace leodivide::afford {
namespace {

const demand::DemandProfile& national_profile() {
  static const demand::DemandProfile profile =
      demand::SyntheticGenerator(demand::GeneratorConfig{}).generate_profile();
  return profile;
}

demand::DemandProfile tiny_profile() {
  demand::CountyTable counties;
  counties.add({"90001", {36.0, -90.0}, 30000.0, 100});
  counties.add({"90002", {37.0, -91.0}, 60000.0, 300});
  counties.add({"90003", {38.0, -92.0}, 90000.0, 600});
  std::vector<demand::CellDemand> cells(3);
  for (std::size_t i = 0; i < 3; ++i) {
    cells[i].cell = hex::CellId(5, {static_cast<std::int32_t>(i), 0});
    cells[i].county_index = static_cast<std::uint32_t>(i);
    cells[i].underserved = static_cast<std::uint32_t>(100 * (i == 0 ? 1 : i * 3));
  }
  cells[0].underserved = 100;
  cells[1].underserved = 300;
  cells[2].underserved = 600;
  return {std::move(cells), std::move(counties)};
}

// ------------------------------------------------------------------ plans ----

TEST(Plans, PaperPrices) {
  EXPECT_DOUBLE_EQ(starlink_residential().monthly_usd, 120.0);
  EXPECT_DOUBLE_EQ(starlink_residential_lifeline().monthly_usd, 110.75);
  EXPECT_DOUBLE_EQ(xfinity_300().monthly_usd, 40.0);
  EXPECT_DOUBLE_EQ(spectrum_premier().monthly_usd, 50.0);
}

TEST(Plans, AllPaperPlansAreReliable) {
  for (const auto& p : paper_plans()) {
    EXPECT_TRUE(p.reliable()) << p.name;
  }
}

TEST(Plans, LifelineSubtractsAndFloorsAtZero) {
  EXPECT_DOUBLE_EQ(with_lifeline(120.0), 110.75);
  EXPECT_DOUBLE_EQ(with_lifeline(5.0), 0.0);
}

// -------------------------------------------------------------- thresholds ----

TEST(Threshold, PaperIncomeThresholds) {
  // $120/mo at the 2% rule requires $72,000/yr; with Lifeline $66,450.
  EXPECT_NEAR(income_required_usd(120.0), 72000.0, 1e-9);
  EXPECT_NEAR(income_required_usd(110.75), 66450.0, 1e-9);
  EXPECT_NEAR(income_required_usd(40.0), 24000.0, 1e-9);
  EXPECT_NEAR(income_required_usd(50.0), 30000.0, 1e-9);
}

TEST(Threshold, RejectsBadThreshold) {
  EXPECT_THROW((void)income_required_usd(100.0, 0.0), std::invalid_argument);
}

// -------------------------------------------------------------- income view ----

TEST(IncomeViewTest, WeightedFractions) {
  const IncomeView view(tiny_profile());
  EXPECT_DOUBLE_EQ(view.total_locations(), 1000.0);
  EXPECT_DOUBLE_EQ(view.locations_with_income_at_most(30000.0), 100.0);
  EXPECT_DOUBLE_EQ(view.locations_with_income_at_most(60000.0), 400.0);
  EXPECT_DOUBLE_EQ(view.locations_with_income_at_most(90000.0), 1000.0);
}

TEST(IncomeViewTest, QuantileWeighted) {
  const IncomeView view(tiny_profile());
  EXPECT_DOUBLE_EQ(view.income_quantile(0.05), 30000.0);
  EXPECT_DOUBLE_EQ(view.income_quantile(0.3), 60000.0);
  EXPECT_DOUBLE_EQ(view.income_quantile(0.9), 90000.0);
  EXPECT_DOUBLE_EQ(view.min_income(), 30000.0);
}

TEST(IncomeViewTest, RejectsEmptyProfile) {
  demand::CountyTable counties;
  counties.add({"90001", {}, 50000.0, 0});
  demand::DemandProfile profile({}, std::move(counties));
  EXPECT_THROW(IncomeView{profile}, std::invalid_argument);
}

// ------------------------------------------------------------ affordability ----

TEST(Affordability, TinyProfilePlanEvaluation) {
  const AffordabilityAnalyzer analyzer(tiny_profile());
  // $100/mo requires $60,000: the $30k county (100 locs) is priced out;
  // the $60k county is exactly at the threshold and can afford it.
  const PlanAffordability r =
      analyzer.evaluate({"Test", 100.0, {100.0, 20.0}});
  EXPECT_DOUBLE_EQ(r.income_required_usd, 60000.0);
  EXPECT_DOUBLE_EQ(r.locations_unable, 100.0);
  EXPECT_NEAR(r.fraction_unable, 0.1, 1e-12);
}

TEST(Affordability, NationalF4StarlinkUnaffordableFor74_5Percent) {
  const AffordabilityAnalyzer analyzer(national_profile());
  const auto r = analyzer.evaluate(starlink_residential());
  EXPECT_NEAR(r.fraction_unable, 0.745, 0.005);
  // ~3.5M of 4.7M (F4).
  EXPECT_NEAR(r.locations_unable, 3.48e6, 0.05e6);
}

TEST(Affordability, NationalLifelineLeavesNearly3MUnable) {
  const AffordabilityAnalyzer analyzer(national_profile());
  const auto r = analyzer.evaluate(starlink_residential_lifeline());
  EXPECT_NEAR(r.locations_unable, 2.97e6, 0.05e6);
  EXPECT_NEAR(r.fraction_unable, 0.635, 0.005);
}

TEST(Affordability, NationalComparablePlansAffordableAlmostEverywhere) {
  const AffordabilityAnalyzer analyzer(national_profile());
  for (const auto& plan : {xfinity_300(), spectrum_premier()}) {
    const auto r = analyzer.evaluate(plan);
    EXPECT_LE(r.fraction_unable, 0.0001) << plan.name;  // > 99.99% affordable
  }
}

TEST(Affordability, CurveEndsMatchFig4Annotations) {
  // Fig 4 marks the curve endpoints at proportions 0.050 ($120) and 0.046
  // ($110.75) — the poorest county's income is $28,800.
  const AffordabilityAnalyzer analyzer(national_profile());
  EXPECT_NEAR(analyzer.curve_end(starlink_residential()), 0.050, 0.001);
  EXPECT_NEAR(analyzer.curve_end(starlink_residential_lifeline()), 0.046,
              0.001);
}

TEST(Affordability, EvaluatePaperPlansIsSortedByPrice) {
  const AffordabilityAnalyzer analyzer(national_profile());
  const auto all = analyzer.evaluate_paper_plans();
  ASSERT_EQ(all.size(), 4U);
  for (std::size_t i = 1; i < all.size(); ++i) {
    EXPECT_LE(all[i - 1].plan.monthly_usd, all[i].plan.monthly_usd);
    EXPECT_LE(all[i - 1].locations_unable, all[i].locations_unable);
  }
}

TEST(Affordability, ZeroIncomeCellsAreAlwaysPricedOut) {
  // A county reporting zero median income: any positive price is out of
  // reach, but a free plan (income required $0, inclusive boundary) is not.
  demand::CountyTable counties;
  counties.add({"90001", {36.0, -90.0}, 0.0, 100});
  counties.add({"90002", {37.0, -91.0}, 60000.0, 300});
  std::vector<demand::CellDemand> cells(2);
  cells[0].cell = hex::CellId(5, {0, 0});
  cells[0].county_index = 0;
  cells[0].underserved = 100;
  cells[1].cell = hex::CellId(5, {1, 0});
  cells[1].county_index = 1;
  cells[1].underserved = 300;
  const demand::DemandProfile profile(std::move(cells), std::move(counties));
  const AffordabilityAnalyzer analyzer(profile);

  const PlanAffordability cheap =
      analyzer.evaluate({"Cheap", 0.01, {100.0, 20.0}});
  EXPECT_DOUBLE_EQ(cheap.locations_unable, 100.0);
  EXPECT_NEAR(cheap.fraction_unable, 0.25, 1e-12);

  const PlanAffordability free_plan =
      analyzer.evaluate({"Free", 0.0, {100.0, 20.0}});
  EXPECT_DOUBLE_EQ(free_plan.income_required_usd, 0.0);
  EXPECT_DOUBLE_EQ(free_plan.locations_unable, 0.0);
  EXPECT_DOUBLE_EQ(free_plan.fraction_unable, 0.0);
}

TEST(Affordability, PriceAboveEveryThresholdPricesOutEveryone) {
  // Richest tiny-profile county is $90k: at the 2% rule it affords up to
  // $150/mo. One dollar past the top tier prices out all 1000 locations.
  const AffordabilityAnalyzer analyzer(tiny_profile());
  const PlanAffordability r =
      analyzer.evaluate({"Platinum", 151.0, {1000.0, 100.0}});
  EXPECT_DOUBLE_EQ(r.locations_unable, 1000.0);
  EXPECT_DOUBLE_EQ(r.fraction_unable, 1.0);

  // Exactly at the top tier's threshold the boundary is inclusive: the
  // $90k county (600 locations) can still afford it.
  const PlanAffordability at_top =
      analyzer.evaluate({"AtTop", 150.0, {1000.0, 100.0}});
  EXPECT_DOUBLE_EQ(at_top.locations_unable, 400.0);
  EXPECT_NEAR(at_top.fraction_unable, 0.4, 1e-12);
}

// ------------------------------------------------ parameterized: threshold ----

class ThresholdSweep : public ::testing::TestWithParam<double> {};

TEST_P(ThresholdSweep, LooserThresholdNeverIncreasesUnaffordability) {
  const double threshold = GetParam();
  const AffordabilityAnalyzer analyzer(national_profile());
  const auto strict =
      analyzer.evaluate(starlink_residential(), threshold);
  const auto loose =
      analyzer.evaluate(starlink_residential(), threshold * 1.5);
  EXPECT_LE(loose.locations_unable, strict.locations_unable);
}

INSTANTIATE_TEST_SUITE_P(Thresholds, ThresholdSweep,
                         ::testing::Values(0.01, 0.015, 0.02, 0.025, 0.03,
                                           0.04));

}  // namespace
}  // namespace leodivide::afford
