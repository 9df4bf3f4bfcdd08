#include "stats/summary.h"

#include <gtest/gtest.h>

#include "stats/rng.h"
#include "util/error.h"

namespace dvs::stats {
namespace {

TEST(OnlineStats, MeanAndVariance) {
  OnlineStats acc;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    acc.Add(x);
  }
  EXPECT_EQ(acc.count(), 8u);
  EXPECT_DOUBLE_EQ(acc.mean(), 5.0);
  EXPECT_NEAR(acc.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_DOUBLE_EQ(acc.min(), 2.0);
  EXPECT_DOUBLE_EQ(acc.max(), 9.0);
}

TEST(OnlineStats, SingleSample) {
  OnlineStats acc;
  acc.Add(3.0);
  EXPECT_DOUBLE_EQ(acc.mean(), 3.0);
  EXPECT_DOUBLE_EQ(acc.variance(), 0.0);
  EXPECT_DOUBLE_EQ(acc.stddev(), 0.0);
}

TEST(OnlineStats, EmptyThrows) {
  const OnlineStats acc;
  EXPECT_THROW(acc.mean(), util::InvalidArgumentError);
  EXPECT_THROW(acc.min(), util::InvalidArgumentError);
  EXPECT_THROW(acc.max(), util::InvalidArgumentError);
}

TEST(OnlineStats, MergeMatchesBatch) {
  Rng rng(5);
  OnlineStats all;
  OnlineStats left;
  OnlineStats right;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.Normal(2.0, 3.0);
    all.Add(x);
    (i < 400 ? left : right).Add(x);
  }
  left.Merge(right);
  EXPECT_EQ(left.count(), all.count());
  EXPECT_NEAR(left.mean(), all.mean(), 1e-10);
  EXPECT_NEAR(left.variance(), all.variance(), 1e-8);
  EXPECT_DOUBLE_EQ(left.min(), all.min());
  EXPECT_DOUBLE_EQ(left.max(), all.max());
}

TEST(OnlineStats, MergeWithEmpty) {
  OnlineStats a;
  a.Add(1.0);
  OnlineStats empty;
  a.Merge(empty);
  EXPECT_EQ(a.count(), 1u);
  empty.Merge(a);
  EXPECT_EQ(empty.count(), 1u);
  EXPECT_DOUBLE_EQ(empty.mean(), 1.0);
}

TEST(Histogram, BinsAndOverflow) {
  Histogram hist(0.0, 10.0, 5);
  hist.Add(-1.0);   // underflow
  hist.Add(0.0);    // bin 0
  hist.Add(1.9);    // bin 0
  hist.Add(5.0);    // bin 2
  hist.Add(9.99);   // bin 4
  hist.Add(10.0);   // overflow (hi-exclusive)
  EXPECT_EQ(hist.total(), 6u);
  EXPECT_EQ(hist.underflow(), 1u);
  EXPECT_EQ(hist.overflow(), 1u);
  EXPECT_EQ(hist.count(0), 2u);
  EXPECT_EQ(hist.count(2), 1u);
  EXPECT_EQ(hist.count(4), 1u);
  EXPECT_DOUBLE_EQ(hist.bin_lo(2), 4.0);
  EXPECT_DOUBLE_EQ(hist.bin_hi(2), 6.0);
}

TEST(Histogram, RejectsBadConfig) {
  EXPECT_THROW(Histogram(1.0, 1.0, 4), util::InvalidArgumentError);
  EXPECT_THROW(Histogram(0.0, 1.0, 0), util::InvalidArgumentError);
}

}  // namespace
}  // namespace dvs::stats
