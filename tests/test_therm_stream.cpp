// Unit tests for the deterministic thermometer encoding.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>

#include "sc/therm_stream.h"

using namespace ascend::sc;

TEST(ThermValue, EncodeDecodesOnGrid) {
  // L = 8, alpha = 0.5: grid {-2, -1.5, ..., +2}.
  for (int n = 0; n <= 8; ++n) {
    const double x = 0.5 * (n - 4);
    const ThermValue v = ThermValue::encode(x, 8, 0.5);
    EXPECT_EQ(v.ones, n);
    EXPECT_DOUBLE_EQ(v.value(), x);
  }
}

TEST(ThermValue, RoundsToNearest) {
  EXPECT_DOUBLE_EQ(ThermValue::encode(0.24, 8, 0.5).value(), 0.0);
  EXPECT_DOUBLE_EQ(ThermValue::encode(0.26, 8, 0.5).value(), 0.5);
  EXPECT_DOUBLE_EQ(ThermValue::encode(-0.74, 8, 0.5).value(), -0.5);
}

TEST(ThermValue, SaturatesAtRange) {
  EXPECT_DOUBLE_EQ(ThermValue::encode(100.0, 8, 0.5).value(), 2.0);
  EXPECT_DOUBLE_EQ(ThermValue::encode(-100.0, 8, 0.5).value(), -2.0);
}

TEST(ThermValue, SaturatesBeyondIntRangeAndAtInfinity) {
  // Levels past 2^31 must saturate in double, not wrap when narrowed to int.
  EXPECT_EQ(ThermValue::encode(3e9, 8, 1.0).ones, 8);
  EXPECT_EQ(ThermValue::encode(-3e9, 8, 1.0).ones, 0);
  EXPECT_EQ(ThermValue::encode(1e300, 8, 1.0).ones, 8);
  EXPECT_EQ(ThermValue::encode(-1e300, 8, 1.0).ones, 0);
  EXPECT_EQ(ThermValue::encode(std::numeric_limits<double>::infinity(), 8, 1.0).ones, 8);
  EXPECT_EQ(ThermValue::encode(-std::numeric_limits<double>::infinity(), 8, 1.0).ones, 0);
  // Tiny alpha pushes an ordinary input past the int range too.
  EXPECT_EQ(ThermValue::encode(1.0, 8, 1e-12).ones, 8);
  EXPECT_EQ(ThermValue::encode(-1.0, 8, 1e-12).ones, 0);
}

TEST(ThermValue, NanEncodesToZeroOnes) {
  EXPECT_EQ(ThermValue::encode(std::numeric_limits<double>::quiet_NaN(), 8, 1.0).ones, 0);
}

TEST(ThermValue, RoundsHalfAwayFromZeroLikeLround) {
  // Grid L = 8, alpha = 1: level = x + 4. Exact halves round up (the level
  // is non-negative after saturation); neighbours on either side do not.
  for (int n = 0; n < 8; ++n) {
    const double half = n + 0.5 - 4.0;
    EXPECT_EQ(ThermValue::encode(half, 8, 1.0).ones, n + 1) << "x=" << half;
    EXPECT_EQ(ThermValue::encode(half - 1e-9, 8, 1.0).ones, n) << "x=" << half;
  }
  // Agreement with std::lround over a dense in-range sweep, odd length too.
  for (int l : {7, 8}) {
    for (int i = -4000; i <= 4000; ++i) {
      const double x = i * 0.00137;
      const double level = x / 0.75 + l / 2.0;
      const long expect = std::clamp(std::lround(level), 0L, static_cast<long>(l));
      ASSERT_EQ(ThermValue::encode(x, l, 0.75).ones, expect) << "x=" << x << " L=" << l;
    }
  }
}

TEST(ThermValue, RepresentsLPlusOneValues) {
  // A BSL of L distinguishes exactly L+1 values (paper Section III-C).
  std::set<double> values;
  for (int n = 0; n <= 16; ++n) values.insert(ThermValue{n, 16, 0.25}.value());
  EXPECT_EQ(values.size(), 17u);
}

TEST(ThermValue, RangeAccessor) {
  EXPECT_DOUBLE_EQ((ThermValue{0, 8, 0.5}).range(), 2.0);
}

TEST(ThermValue, RejectsBadArgs) {
  EXPECT_THROW(ThermValue::encode(0.0, 0, 1.0), std::invalid_argument);
  EXPECT_THROW(ThermValue::encode(0.0, 4, -1.0), std::invalid_argument);
}

TEST(ThermStream, CanonicalBitsFromValue) {
  const ThermStream s = ThermStream::encode(1.0, 8, 0.5);
  EXPECT_EQ(s.bits.to_string(), "11111100");
  EXPECT_TRUE(s.is_canonical());
  EXPECT_DOUBLE_EQ(s.value(), 1.0);
}

TEST(ThermStream, ToValueRoundtrip) {
  for (int n = 0; n <= 6; ++n) {
    const ThermStream s = ThermStream::from_value(ThermValue{n, 6, 0.75});
    EXPECT_EQ(s.ones(), n);
    EXPECT_EQ(s.length(), 6);
    const ThermValue v = s.to_value();
    EXPECT_EQ(v.ones, n);
    EXPECT_DOUBLE_EQ(v.value(), s.value());
  }
}

TEST(ThermStream, FromValueRejectsBadCount) {
  EXPECT_THROW(ThermStream::from_value(ThermValue{9, 8, 1.0}), std::invalid_argument);
  EXPECT_THROW(ThermStream::from_value(ThermValue{-1, 8, 1.0}), std::invalid_argument);
}

class ThermGrid : public ::testing::TestWithParam<int> {};

TEST_P(ThermGrid, BitAndCountPathsAgreeEverywhere) {
  const int l = GetParam();
  for (int step = -2 * l; step <= 2 * l; ++step) {
    const double x = 0.37 * step;
    const ThermValue v = ThermValue::encode(x, l, 0.37 * 2);
    const ThermStream s = ThermStream::encode(x, l, 0.37 * 2);
    EXPECT_EQ(s.ones(), v.ones);
    EXPECT_DOUBLE_EQ(s.value(), v.value());
    EXPECT_TRUE(s.is_canonical());
  }
}

INSTANTIATE_TEST_SUITE_P(Lengths, ThermGrid, ::testing::Values(2, 4, 8, 16, 32));
