#include "util/math.h"

#include <gtest/gtest.h>

#include "util/error.h"

namespace dvs::util {
namespace {

TEST(Gcd, BasicPairs) {
  EXPECT_EQ(Gcd(12, 18), 6);
  EXPECT_EQ(Gcd(18, 12), 6);
  EXPECT_EQ(Gcd(7, 13), 1);
  EXPECT_EQ(Gcd(100, 100), 100);
  EXPECT_EQ(Gcd(1, 999), 1);
}

TEST(Gcd, RejectsNonPositive) {
  EXPECT_THROW(Gcd(0, 5), InvalidArgumentError);
  EXPECT_THROW(Gcd(5, 0), InvalidArgumentError);
  EXPECT_THROW(Gcd(-4, 8), InvalidArgumentError);
}

TEST(Lcm, BasicPairs) {
  EXPECT_EQ(Lcm(4, 6), 12);
  EXPECT_EQ(Lcm(10, 25), 50);
  EXPECT_EQ(Lcm(7, 7), 7);
  EXPECT_EQ(Lcm(1, 9), 9);
}

TEST(Lcm, DetectsOverflow) {
  const std::int64_t big = 3'000'000'000'000'000'000LL;
  EXPECT_THROW(Lcm(big, big - 1), InvalidArgumentError);
}

TEST(LcmAll, HyperPeriodOfTypicalTaskPeriods) {
  EXPECT_EQ(LcmAll({10, 20, 25, 40}), 200);
  EXPECT_EQ(LcmAll({600, 1200, 2400, 4800}), 4800);
  EXPECT_EQ(LcmAll({25, 50, 100, 200, 1000}), 1000);
  EXPECT_EQ(LcmAll({42}), 42);
}

TEST(LcmAll, RejectsEmpty) {
  EXPECT_THROW(LcmAll({}), InvalidArgumentError);
}

TEST(AlmostEqual, AbsoluteAndRelative) {
  EXPECT_TRUE(AlmostEqual(1.0, 1.0));
  EXPECT_TRUE(AlmostEqual(1.0, 1.0 + 5e-10));
  EXPECT_FALSE(AlmostEqual(1.0, 1.001));
  EXPECT_TRUE(AlmostEqual(1e12, 1e12 * (1.0 + 1e-10)));
  EXPECT_FALSE(AlmostEqual(1e12, 1e12 * 1.001));
  EXPECT_TRUE(AlmostEqual(0.0, 0.0));
}

TEST(Clamp, InsideAndOutside) {
  EXPECT_DOUBLE_EQ(Clamp(5.0, 0.0, 10.0), 5.0);
  EXPECT_DOUBLE_EQ(Clamp(-1.0, 0.0, 10.0), 0.0);
  EXPECT_DOUBLE_EQ(Clamp(11.0, 0.0, 10.0), 10.0);
  EXPECT_THROW(Clamp(0.0, 2.0, 1.0), InvalidArgumentError);
}

}  // namespace
}  // namespace dvs::util
