// Unit and property tests for leodivide::stats.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "leodivide/stats/cdf.hpp"
#include "leodivide/stats/histogram.hpp"
#include "leodivide/stats/interpolate.hpp"
#include "leodivide/stats/percentile.hpp"
#include "leodivide/stats/rng.hpp"
#include "leodivide/stats/summary.hpp"
#include "oracles/oracles.hpp"

namespace leodivide::stats {
namespace {

// ---------------------------------------------------------------- RNG ----

TEST(SplitMix64, IsDeterministic) {
  SplitMix64 a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(SplitMix64, DifferentSeedsDiffer) {
  SplitMix64 a(1), b(2);
  EXPECT_NE(a(), b());
}

TEST(Pcg32, IsDeterministic) {
  Pcg32 a(42, 7), b(42, 7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Pcg32, StreamsAreIndependent) {
  Pcg32 a(42, 0), b(42, 1);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_LT(same, 4);
}

TEST(Pcg32, NextDoubleInUnitInterval) {
  Pcg32 rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.next_double();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Pcg32, NextDoubleMeanIsHalf) {
  Pcg32 rng(11);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.next_double();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Pcg32, NextBelowRespectsBound) {
  Pcg32 rng(3);
  for (std::uint32_t bound : {1U, 2U, 7U, 100U, 1000U}) {
    for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.next_below(bound), bound);
  }
}

TEST(Pcg32, NextBelowZeroBoundIsZero) {
  Pcg32 rng(3);
  EXPECT_EQ(rng.next_below(0), 0U);
}

TEST(Pcg32, NextBelowIsRoughlyUniform) {
  Pcg32 rng(5);
  std::vector<int> counts(10, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[rng.next_below(10)];
  for (int c : counts) EXPECT_NEAR(c, n / 10, n / 100);
}

TEST(MixSeed, DistinctEntitiesGetDistinctSeeds) {
  EXPECT_NE(mix_seed(1, 1), mix_seed(1, 2));
  EXPECT_NE(mix_seed(1, 1), mix_seed(2, 1));
  EXPECT_EQ(mix_seed(9, 9), mix_seed(9, 9));
}

// ------------------------------------------------------- interpolation ----

TEST(PiecewiseQuantile, PassesThroughAnchors) {
  const PiecewiseQuantile q({{0.0, 1.0}, {0.5, 10.0}, {1.0, 100.0}});
  EXPECT_DOUBLE_EQ(q(0.0), 1.0);
  EXPECT_NEAR(q(0.5), 10.0, 1e-9);
  EXPECT_DOUBLE_EQ(q(1.0), 100.0);
}

TEST(PiecewiseQuantile, IsLogLinearBetweenAnchors) {
  const PiecewiseQuantile q({{0.0, 1.0}, {1.0, 100.0}});
  EXPECT_NEAR(q(0.5), 10.0, 1e-9);  // geometric midpoint
}

TEST(PiecewiseQuantile, IsMonotone) {
  const PiecewiseQuantile q(
      {{0.0, 1.0}, {0.36, 62.0}, {0.9, 552.0}, {0.99, 1437.0}, {1.0, 3400.0}});
  double prev = 0.0;
  for (int i = 0; i <= 1000; ++i) {
    const double v = q(i / 1000.0);
    EXPECT_GE(v, prev);
    prev = v;
  }
}

TEST(PiecewiseQuantile, MeanOfConstantIsConstant) {
  // Log-linear between equal anchors is flat.
  const PiecewiseQuantile q({{0.0, 7.0}, {1.0, 7.0}});
  EXPECT_NEAR(q.mean(1000), 7.0, 1e-9);
}

TEST(PiecewiseQuantile, MeanMatchesClosedForm) {
  // For Q(p) = exp(ln(a) + p ln(b/a)), the mean is (b - a) / ln(b/a).
  const PiecewiseQuantile q({{0.0, 2.0}, {1.0, 32.0}});
  const double expected = (32.0 - 2.0) / std::log(16.0);
  EXPECT_NEAR(q.mean(), expected, expected * 1e-5);
}

TEST(PiecewiseQuantile, RejectsBadAnchors) {
  EXPECT_THROW(PiecewiseQuantile({{0.0, 1.0}}), std::invalid_argument);
  EXPECT_THROW(PiecewiseQuantile({{0.0, 1.0}, {0.0, 2.0}}),
               std::invalid_argument);
  EXPECT_THROW(PiecewiseQuantile({{0.0, 2.0}, {1.0, 1.0}}),
               std::invalid_argument);
  EXPECT_THROW(PiecewiseQuantile({{-0.1, 1.0}, {1.0, 2.0}}),
               std::invalid_argument);
  EXPECT_THROW(PiecewiseQuantile({{0.0, -1.0}, {1.0, 2.0}}),
               std::invalid_argument);
}

// ------------------------------------------- the oracles' uniform sampler ----

TEST(Distributions, UniformRespectsRange) {
  Pcg32 rng(1);
  for (int i = 0; i < 1000; ++i) {
    const double v = oracle::sample_uniform(rng, -3.0, 5.0);
    EXPECT_GE(v, -3.0);
    EXPECT_LT(v, 5.0);
  }
}

TEST(Distributions, UniformRejectsInvertedRange) {
  Pcg32 rng(1);
  EXPECT_THROW((void)oracle::sample_uniform(rng, 2.0, 1.0), std::invalid_argument);
}

// ----------------------------------------------------------- percentile ----

TEST(Percentile, EndpointsAndMedian) {
  const std::vector<double> v{1.0, 2.0, 3.0, 4.0, 5.0};
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 50.0), 3.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100.0), 5.0);
}

TEST(Percentile, InterpolatesBetweenOrderStats) {
  const std::vector<double> v{0.0, 10.0};
  EXPECT_DOUBLE_EQ(percentile(v, 25.0), 2.5);
}

TEST(Percentile, SingleElement) {
  const std::vector<double> v{7.0};
  EXPECT_DOUBLE_EQ(percentile(v, 37.0), 7.0);
}

TEST(Percentile, UnsortedInputHandled) {
  const std::vector<double> v{5.0, 1.0, 3.0};
  EXPECT_DOUBLE_EQ(percentile(v, 50.0), 3.0);
}

TEST(Percentile, RejectsBadInputs) {
  const std::vector<double> v{1.0};
  EXPECT_THROW((void)percentile({}, 50.0), std::invalid_argument);
  EXPECT_THROW((void)percentile(v, -1.0), std::invalid_argument);
  EXPECT_THROW((void)percentile(v, 101.0), std::invalid_argument);
}

// ------------------------------------------------------------ histogram ----

TEST(HistogramTest, BinsValuesCorrectly) {
  Histogram h(0.0, 10.0, 5);
  h.add(0.5);
  h.add(2.5);
  h.add(9.9);
  h.add(10.0);  // exactly hi -> last bin
  // Each ascii row ends with its bin's count.
  std::istringstream rows(h.ascii(10));
  std::vector<std::string> counts;
  for (std::string row; std::getline(rows, row);) {
    counts.push_back(row.substr(row.rfind(' ') + 1));
  }
  EXPECT_EQ(counts, (std::vector<std::string>{"1", "1", "0", "0", "2"}));
  EXPECT_EQ(h.total(), 4U);
}

TEST(HistogramTest, TracksOverflowAndUnderflow) {
  Histogram h(0.0, 1.0, 2);
  h.add(-1.0);
  h.add(2.0);
  EXPECT_EQ(h.underflow(), 1U);
  EXPECT_EQ(h.overflow(), 1U);
  EXPECT_EQ(h.total(), 2U);
}

TEST(HistogramTest, BinEdgesAreConsistent) {
  Histogram h(0.0, 100.0, 10);
  for (std::size_t b = 0; b < h.bin_count(); ++b) {
    EXPECT_DOUBLE_EQ(h.bin_hi(b) - h.bin_lo(b), h.bin_width());
    if (b > 0) EXPECT_DOUBLE_EQ(h.bin_lo(b), h.bin_hi(b - 1));
  }
}

TEST(HistogramTest, RejectsBadConstruction) {
  EXPECT_THROW(Histogram(1.0, 0.0, 5), std::invalid_argument);
  EXPECT_THROW(Histogram(0.0, 1.0, 0), std::invalid_argument);
}

TEST(HistogramTest, AsciiRenderHasOneLinePerBin) {
  Histogram h(0.0, 4.0, 4);
  h.add(1.0);
  const std::string art = h.ascii(10);
  EXPECT_EQ(std::count(art.begin(), art.end(), '\n'), 4);
}

// ------------------------------------------------------------------ cdf ----

TEST(EmpiricalCdfTest, StepFunctionValues) {
  const std::vector<double> v{1.0, 2.0, 3.0, 4.0};
  const EmpiricalCdf cdf(v);
  EXPECT_DOUBLE_EQ(cdf(0.5), 0.0);
  EXPECT_DOUBLE_EQ(cdf(1.0), 0.25);
  EXPECT_DOUBLE_EQ(cdf(2.5), 0.5);
  EXPECT_DOUBLE_EQ(cdf(4.0), 1.0);
}

TEST(EmpiricalCdfTest, RejectsEmpty) {
  EXPECT_THROW(EmpiricalCdf(std::vector<double>{}), std::invalid_argument);
}

TEST(WeightedCdfTest, WeightsDriveFractions) {
  const std::vector<double> values{10.0, 20.0};
  const std::vector<double> weights{3.0, 1.0};
  const WeightedCdf cdf(values, weights);
  EXPECT_DOUBLE_EQ(cdf.weight_at_most(10.0) / cdf.total_weight(), 0.75);
  EXPECT_DOUBLE_EQ(cdf.weight_at_most(20.0) / cdf.total_weight(), 1.0);
  EXPECT_DOUBLE_EQ(cdf.weight_at_most(15.0), 3.0);
}

TEST(WeightedCdfTest, QuantileRespectsWeights) {
  const std::vector<double> values{1.0, 2.0, 3.0};
  const std::vector<double> weights{1.0, 8.0, 1.0};
  const WeightedCdf cdf(values, weights);
  EXPECT_DOUBLE_EQ(cdf.quantile(0.5), 2.0);
}

TEST(WeightedCdfTest, RejectsBadInputs) {
  const std::vector<double> v{1.0};
  const std::vector<double> wneg{-1.0};
  const std::vector<double> w2{1.0, 2.0};
  EXPECT_THROW(WeightedCdf(v, w2), std::invalid_argument);
  EXPECT_THROW(WeightedCdf(v, wneg), std::invalid_argument);
}

// --------------------------------------------------------------- summary ----

TEST(KahanSumTest, RecoversSmallAddends) {
  KahanSum sum;
  sum.add(1e16);
  for (int i = 0; i < 10000; ++i) sum.add(1.0);
  sum.add(-1e16);
  EXPECT_DOUBLE_EQ(sum.value(), 10000.0);
}

}  // namespace
}  // namespace leodivide::stats

// Appended: concentration statistics (stats/lorenz.hpp).
#include "leodivide/stats/lorenz.hpp"

namespace leodivide::stats {
namespace {

TEST(Gini, UniformValuesAreZero) {
  const std::vector<double> v(100, 5.0);
  EXPECT_NEAR(gini(v), 0.0, 1e-12);
}

TEST(Gini, FullConcentrationApproachesOne) {
  std::vector<double> v(1000, 0.0);
  v[0] = 100.0;
  EXPECT_NEAR(gini(v), 1.0 - 1.0 / 1000.0, 1e-9);
}

TEST(Gini, KnownTwoPointValue) {
  // {1, 3}: G = (|1-3| + |3-1|) / (2 * n^2 * mean) = 4 / (2*4*2) = 0.25.
  const std::vector<double> v{1.0, 3.0};
  EXPECT_NEAR(gini(v), 0.25, 1e-12);
}

TEST(Gini, ScaleInvariant) {
  const std::vector<double> v{2.0, 5.0, 9.0, 14.0};
  std::vector<double> scaled;
  for (double x : v) scaled.push_back(x * 1000.0);
  EXPECT_NEAR(gini(v), gini(scaled), 1e-12);
}

TEST(Gini, RejectsDegenerateInputs) {
  const std::vector<double> neg{1.0, -1.0};
  const std::vector<double> zeros{0.0, 0.0};
  EXPECT_THROW((void)gini(std::vector<double>{}), std::invalid_argument);
  EXPECT_THROW((void)gini(neg), std::invalid_argument);
  EXPECT_THROW((void)gini(zeros), std::invalid_argument);
}

TEST(TopShare, KnownValues) {
  const std::vector<double> v{1.0, 1.0, 1.0, 1.0, 6.0};
  EXPECT_NEAR(top_share(v, 0.2), 0.6, 1e-12);
  EXPECT_NEAR(top_share(v, 1.0), 1.0, 1e-12);
  EXPECT_THROW((void)top_share(v, 0.0), std::invalid_argument);
  EXPECT_THROW((void)top_share(v, 1.5), std::invalid_argument);
}

}  // namespace
}  // namespace leodivide::stats
