// Unit tests for leodivide::spectrum — the Table 1 substrate.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <utility>

#include "leodivide/spectrum/band.hpp"
#include "leodivide/spectrum/beamplan.hpp"
#include "leodivide/spectrum/efficiency.hpp"
#include "leodivide/spectrum/linkbudget.hpp"

namespace leodivide::spectrum {
namespace {

// ------------------------------------------------------------------ bands ----

TEST(Band, WidthInMhz) {
  const Band b{"test", 10.7, 12.75, 4, BeamUsage::kUserDownlink};
  EXPECT_NEAR(b.width_mhz(), 2050.0, 1e-9);
}

TEST(ScheduleS, MatchesPaperTable1) {
  const SpectrumPlan plan = starlink_schedule_s();
  EXPECT_EQ(plan.bands().size(), 5U);
  EXPECT_NEAR(plan.user_downlink_mhz(), 3850.0, 1e-9);
  EXPECT_NEAR(plan.total_mhz(), 8850.0, 1e-9);
  EXPECT_EQ(plan.user_beams(), 24U);
  EXPECT_EQ(plan.total_beams(), 28U);
}

TEST(ScheduleS, GatewayBandIsExcludedFromUserSpectrum) {
  const SpectrumPlan plan = starlink_schedule_s();
  EXPECT_NEAR(plan.total_mhz() - plan.user_downlink_mhz(), 5000.0, 1e-9);
}

TEST(SpectrumPlan, RejectsEmptyAndInverted) {
  EXPECT_THROW(SpectrumPlan({}), std::invalid_argument);
  EXPECT_THROW(
      SpectrumPlan({{"bad", 12.0, 11.0, 1, BeamUsage::kUserDownlink}}),
      std::invalid_argument);
  // Non-finite edges: an infinite upper edge passes hi > lo, and a NaN edge
  // fails every comparison.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  for (const auto& [lo, hi] : {std::pair{10.7, kInf}, std::pair{-kInf, 12.7},
                               std::pair{kNaN, 12.7}, std::pair{10.7, kNaN}}) {
    EXPECT_THROW(
        SpectrumPlan({{"edge", lo, hi, 4, BeamUsage::kUserDownlink}}),
        std::invalid_argument)
        << lo << " " << hi;
  }
  // Beam counts whose sum exceeds UINT32_MAX: a 32-bit sum would wrap to 4
  // user beams, which BeamPlan(plan, 4) would accept.
  constexpr std::uint32_t kMaxBeams = std::numeric_limits<std::uint32_t>::max();
  EXPECT_THROW(
      SpectrumPlan({{"wide", 10.7, 12.7, kMaxBeams, BeamUsage::kUserDownlink},
                    {"more", 19.7, 20.2, 5, BeamUsage::kUserDownlink}}),
      std::invalid_argument);
  EXPECT_THROW(SpectrumPlan({{"user", 10.7, 12.7, 5, BeamUsage::kUserDownlink},
                             {"gw", 71.0, 76.0, kMaxBeams,
                              BeamUsage::kGatewayDownlink}}),
               std::invalid_argument);
}

TEST(BeamUsageNames, RoundTripStrings) {
  EXPECT_EQ(to_string(BeamUsage::kUserDownlink), "DL to UTs");
  EXPECT_EQ(to_string(BeamUsage::kUserOrGatewayDownlink), "DL to UTs / GWs");
  EXPECT_EQ(to_string(BeamUsage::kGatewayDownlink), "DL to GWs");
}

// ------------------------------------------------------------- efficiency ----

TEST(Efficiency, PaperCapacityFigure) {
  // 3850 MHz x 4.5 bps/Hz = 17.325 Gbps (~17.3 in the paper).
  EXPECT_NEAR(capacity_gbps(3850.0, kPaperSpectralEfficiency), 17.325, 1e-9);
}

TEST(Efficiency, CapacityScalesLinearly) {
  EXPECT_DOUBLE_EQ(capacity_gbps(100.0, 2.0), 0.2);
  EXPECT_DOUBLE_EQ(capacity_gbps(0.0, 4.5), 0.0);
  EXPECT_THROW((void)capacity_gbps(-1.0, 4.5), std::invalid_argument);
}

TEST(Efficiency, ShannonKnownValues) {
  EXPECT_DOUBLE_EQ(shannon_efficiency(0.0), 0.0);
  EXPECT_DOUBLE_EQ(shannon_efficiency(1.0), 1.0);
  EXPECT_DOUBLE_EQ(shannon_efficiency(3.0), 2.0);
  EXPECT_THROW((void)shannon_efficiency(-0.5), std::invalid_argument);
}

TEST(Efficiency, ModcodLadderIsMonotone) {
  double prev = -1.0;
  for (double snr = -5.0; snr <= 25.0; snr += 0.5) {
    const double eff = modcod_efficiency(snr);
    EXPECT_GE(eff, prev);
    prev = eff;
  }
}

TEST(Efficiency, ModcodBelowThresholdIsZero) {
  EXPECT_DOUBLE_EQ(modcod_efficiency(-10.0), 0.0);
}

TEST(Efficiency, ModcodNeverExceedsShannon) {
  for (double snr_db = -2.0; snr_db <= 22.0; snr_db += 1.0) {
    const double shannon =
        shannon_efficiency(std::pow(10.0, snr_db / 10.0));
    EXPECT_LE(modcod_efficiency(snr_db), shannon + 1e-9) << snr_db;
  }
}

// -------------------------------------------------------------- linkbudget ----

TEST(LinkBudgetTest, FsplKnownValue) {
  // 600 km at 11.7 GHz: 20log10(600)+20log10(11.7)+92.45 = ~169.4 dB.
  EXPECT_NEAR(free_space_path_loss_db(600.0, 11.7), 169.38, 0.05);
  EXPECT_THROW((void)free_space_path_loss_db(0.0, 11.7), std::invalid_argument);
}

TEST(LinkBudgetTest, DefaultBudgetSupportsPaperEfficiency) {
  // The default Ku-band budget should land in the neighbourhood of the
  // paper's adopted 4.5 bps/Hz (within the 32APSK-64APSK MODCOD range).
  const LinkBudget budget;
  const double eff = achievable_efficiency(budget);
  EXPECT_GE(eff, 3.5);
  EXPECT_LE(eff, 5.5);
}

TEST(LinkBudgetTest, ShannonBoundsModcod) {
  const LinkBudget budget;
  EXPECT_LT(achievable_efficiency(budget), shannon_bound_efficiency(budget));
}

TEST(LinkBudgetTest, LongerRangeLowersCn) {
  LinkBudget near_budget;
  LinkBudget far_budget;
  far_budget.slant_range_km = 1200.0;
  EXPECT_GT(carrier_to_noise_db(near_budget), carrier_to_noise_db(far_budget));
}

TEST(LinkBudgetTest, MoreBandwidthLowersCn) {
  LinkBudget narrow;
  LinkBudget wide;
  wide.bandwidth_mhz = narrow.bandwidth_mhz * 4.0;
  EXPECT_GT(carrier_to_noise_db(narrow), carrier_to_noise_db(wide));
}

TEST(LinkBudgetTest, RejectsNonPositiveBandwidth) {
  LinkBudget budget;
  budget.bandwidth_mhz = 0.0;
  EXPECT_THROW((void)carrier_to_noise_db(budget), std::invalid_argument);
  budget.bandwidth_mhz = -240.0;
  EXPECT_THROW((void)carrier_to_noise_db(budget), std::invalid_argument);
}

TEST(LinkBudgetTest, RejectsNonFiniteInputs) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  {
    LinkBudget budget;
    budget.bandwidth_mhz = nan;
    EXPECT_THROW((void)carrier_to_noise_db(budget), std::invalid_argument);
  }
  {
    LinkBudget budget;
    budget.eirp_dbw = inf;
    EXPECT_THROW((void)carrier_to_noise_db(budget), std::invalid_argument);
  }
  {
    LinkBudget budget;
    budget.system_noise_temp_k = nan;
    EXPECT_THROW((void)carrier_to_noise_db(budget), std::invalid_argument);
  }
  {
    LinkBudget budget;
    budget.slant_range_km = inf;
    EXPECT_THROW((void)carrier_to_noise_db(budget), std::invalid_argument);
  }
  {
    LinkBudget budget;
    budget.misc_losses_db = nan;
    EXPECT_THROW((void)carrier_to_noise_db(budget), std::invalid_argument);
  }
}

TEST(LinkBudgetTest, RejectsNonPositiveNoiseTemperature) {
  LinkBudget budget;
  budget.system_noise_temp_k = 0.0;
  EXPECT_THROW((void)carrier_to_noise_db(budget), std::invalid_argument);
}

TEST(LinkBudgetTest, BoundaryBandwidthStillFinite) {
  // A tiny but positive bandwidth is legal and yields a finite (large) C/N.
  LinkBudget budget;
  budget.bandwidth_mhz = 1e-6;
  EXPECT_TRUE(std::isfinite(carrier_to_noise_db(budget)));
}

// ---------------------------------------------------------------- beamplan ----

TEST(BeamPlanTest, PaperNumbers) {
  const BeamPlan plan = starlink_beam_plan();
  EXPECT_NEAR(plan.full_cell_capacity_gbps(), 17.325, 1e-9);
  EXPECT_NEAR(plan.per_beam_capacity_gbps(), 17.325 / 4.0, 1e-9);
  EXPECT_EQ(plan.user_beams(), 24U);
  EXPECT_EQ(plan.beams_per_full_cell(), 4U);
}

TEST(BeamPlanTest, SpreadDividesCapacity) {
  const BeamPlan plan = starlink_beam_plan();
  EXPECT_NEAR(plan.spread_cell_capacity_gbps(1.0), 17.325, 1e-9);
  EXPECT_NEAR(plan.spread_cell_capacity_gbps(5.0), 3.465, 1e-9);
  EXPECT_THROW((void)plan.spread_cell_capacity_gbps(0.5),
               std::invalid_argument);
}

TEST(BeamPlanTest, CellsServedPerSatelliteFormula) {
  const BeamPlan plan = starlink_beam_plan();
  // 1 + (24 - 4) * s — the denominator of the paper's Table-2 model.
  EXPECT_DOUBLE_EQ(plan.cells_served_per_satellite(1.0, 4), 21.0);
  EXPECT_DOUBLE_EQ(plan.cells_served_per_satellite(2.0, 4), 41.0);
  EXPECT_DOUBLE_EQ(plan.cells_served_per_satellite(5.0, 4), 101.0);
  EXPECT_DOUBLE_EQ(plan.cells_served_per_satellite(10.0, 4), 201.0);
  EXPECT_DOUBLE_EQ(plan.cells_served_per_satellite(15.0, 4), 301.0);
  EXPECT_DOUBLE_EQ(plan.cells_served_per_satellite(1.0, 1), 24.0);
}

TEST(BeamPlanTest, RejectsBadConstruction) {
  EXPECT_THROW(BeamPlan(starlink_schedule_s(), 0), std::invalid_argument);
  EXPECT_THROW(BeamPlan(starlink_schedule_s(), 25), std::invalid_argument);
  for (const double bad : {-1.0, 0.0, std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity()}) {
    EXPECT_THROW(BeamPlan(starlink_schedule_s(), 4, bad),
                 std::invalid_argument)
        << bad;
  }
  // Finite edges whose width overflows: the cell capacity is not finite.
  EXPECT_THROW(BeamPlan(SpectrumPlan({{"wide", 0.0, 1e306, 4,
                                       BeamUsage::kUserDownlink}})),
               std::invalid_argument);
}

TEST(BeamPlanTest, ConstantsMatchBandTable) {
  const BeamPlan plan = starlink_beam_plan();
  EXPECT_EQ(plan.user_beams(), plan.spectrum().user_beams());
  EXPECT_EQ(std::bit_cast<std::uint64_t>(plan.full_cell_capacity_gbps()),
            std::bit_cast<std::uint64_t>(
                capacity_gbps(plan.spectrum().user_downlink_mhz(),
                              plan.spectral_efficiency())));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(plan.per_beam_capacity_gbps()),
            std::bit_cast<std::uint64_t>(plan.full_cell_capacity_gbps() / 4.0));
}

TEST(BeamPlanTest, RejectsBadBeamArguments) {
  const BeamPlan plan = starlink_beam_plan();
  EXPECT_THROW((void)plan.cells_served_per_satellite(0.5, 4),
               std::invalid_argument);
  EXPECT_THROW((void)plan.cells_served_per_satellite(1.0, 0),
               std::invalid_argument);
  EXPECT_THROW((void)plan.cells_served_per_satellite(1.0, 25),
               std::invalid_argument);
}

// ----------------------------------------------- parameterized: spread sweep ----

class SpreadSweep : public ::testing::TestWithParam<double> {};

TEST_P(SpreadSweep, CapacityTimesSpreadIsInvariant) {
  const BeamPlan plan = starlink_beam_plan();
  const double s = GetParam();
  EXPECT_NEAR(plan.spread_cell_capacity_gbps(s) * s,
              plan.full_cell_capacity_gbps(), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Spreads, SpreadSweep,
                         ::testing::Values(1.0, 2.0, 3.0, 5.0, 8.0, 10.0,
                                           15.0, 20.0));

class BudgetRangeSweep : public ::testing::TestWithParam<double> {};

TEST_P(BudgetRangeSweep, EfficiencyDegradesGracefully) {
  LinkBudget budget;
  budget.slant_range_km = GetParam();
  const double eff = achievable_efficiency(budget);
  EXPECT_GE(eff, 0.0);
  EXPECT_LE(eff, 5.44);
}

INSTANTIATE_TEST_SUITE_P(Ranges, BudgetRangeSweep,
                         ::testing::Values(550.0, 700.0, 900.0, 1100.0,
                                           1500.0, 2000.0));

}  // namespace
}  // namespace leodivide::spectrum
