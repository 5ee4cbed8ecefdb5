// SimClock boundary behaviour: epoch/timestamp arithmetic at horizon
// edges, sub-second steps, large epoch counts, and malformed inputs. Every
// coverage trace stamps its epochs with these times, so the golden trace
// bytes lean on this arithmetic being exact, and the edge cases get their
// own file.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>

#include "leodivide/sim/clock.hpp"

namespace leodivide::sim {
namespace {

TEST(SimClock, EpochCountIncludesBothEndpointsOnExactMultiples) {
  const SimClock clock(600.0, 60.0);
  EXPECT_EQ(clock.epochs(), 11u);  // 0, 60, ..., 600
  EXPECT_EQ(clock.time_at(0), 0.0);
  EXPECT_EQ(clock.time_at(10), 600.0);
}

TEST(SimClock, FinalEpochNeverExceedsTheHorizon) {
  const SimClock clock(100.0, 33.0);
  EXPECT_EQ(clock.epochs(), 4u);  // 0, 33, 66, 99
  EXPECT_EQ(clock.time_at(3), 99.0);
  EXPECT_THROW((void)clock.time_at(4), std::out_of_range);
}

TEST(SimClock, ZeroDurationIsOneEpochAtTimeZero) {
  const SimClock clock(0.0, 15.0);
  EXPECT_EQ(clock.epochs(), 1u);
  EXPECT_EQ(clock.time_at(0), 0.0);
  EXPECT_THROW((void)clock.time_at(1), std::out_of_range);
}

TEST(SimClock, SubSecondStepsStayExactOnDyadicFractions) {
  // Dyadic steps are exactly representable: i * step must reproduce the
  // grid bit-for-bit — the property the golden trace bytes rely on.
  const SimClock clock(10.0, 0.125);
  EXPECT_EQ(clock.epochs(), 81u);
  EXPECT_EQ(clock.time_at(1), 0.125);
  EXPECT_EQ(clock.time_at(40), 5.0);
  EXPECT_EQ(clock.time_at(80), 10.0);
}

TEST(SimClock, NonDyadicSubSecondStepCountsEpochsByFloor) {
  // 0.1 is not exactly representable; the clock's contract is
  // floor(duration/step) + 1 of the *double* ratio, whatever rounding
  // produced it. 1.0 / 0.1 rounds to exactly 10.0 in binary64.
  const SimClock clock(1.0, 0.1);
  EXPECT_EQ(clock.epochs(), 11u);
  EXPECT_GT(clock.time_at(10), 0.99);
}

TEST(SimClock, LargeEpochCountsSurviveTheSizeCast) {
  const SimClock clock(86400.0 * 365.0, 1.0);  // one year at 1 s
  EXPECT_EQ(clock.epochs(), 31536001u);
  EXPECT_EQ(clock.time_at(31536000u), 86400.0 * 365.0);
}

TEST(SimClock, AbsurdEpochCountsAreAConfigurationError) {
  // Beyond the cast-safety ceiling the constructor must throw instead of
  // invoking undefined behaviour in the double -> size_t conversion.
  EXPECT_THROW(SimClock(1e300, 1e-300), std::invalid_argument);
  EXPECT_THROW(SimClock(std::numeric_limits<double>::max(), 1.0),
               std::invalid_argument);
}

TEST(SimClock, RejectsNonFiniteAndNonPositiveInputs) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(SimClock(nan, 1.0), std::invalid_argument);
  EXPECT_THROW(SimClock(1.0, nan), std::invalid_argument);
  EXPECT_THROW(SimClock(inf, 1.0), std::invalid_argument);
  EXPECT_THROW(SimClock(1.0, inf), std::invalid_argument);
  EXPECT_THROW(SimClock(-1.0, 1.0), std::invalid_argument);
  EXPECT_THROW(SimClock(1.0, 0.0), std::invalid_argument);
  EXPECT_THROW(SimClock(1.0, -2.0), std::invalid_argument);
}

TEST(SimClock, AccessorsEchoConstruction) {
  const SimClock clock(7200.0, 0.5);
  EXPECT_EQ(clock.duration_s(), 7200.0);
  EXPECT_EQ(clock.step_s(), 0.5);
  EXPECT_EQ(clock.epochs(), 14401u);
}

}  // namespace
}  // namespace leodivide::sim
