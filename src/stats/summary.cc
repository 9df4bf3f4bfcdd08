#include "stats/summary.h"

#include <algorithm>
#include <cmath>

#include "util/error.h"

namespace dvs::stats {

void OnlineStats::Add(double sample) {
  if (count_ == 0) {
    min_ = sample;
    max_ = sample;
  } else {
    min_ = std::min(min_, sample);
    max_ = std::max(max_, sample);
  }
  ++count_;
  const double delta = sample - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (sample - mean_);
}

double OnlineStats::mean() const {
  ACS_REQUIRE(count_ > 0, "mean of empty accumulator");
  return mean_;
}

double OnlineStats::variance() const {
  if (count_ < 2) {
    return 0.0;
  }
  return m2_ / static_cast<double>(count_ - 1);
}

double OnlineStats::stddev() const { return std::sqrt(variance()); }

double OnlineStats::min() const {
  ACS_REQUIRE(count_ > 0, "min of empty accumulator");
  return min_;
}

double OnlineStats::max() const {
  ACS_REQUIRE(count_ > 0, "max of empty accumulator");
  return max_;
}

void OnlineStats::Merge(const OnlineStats& other) {
  if (other.count_ == 0) {
    return;
  }
  if (count_ == 0) {
    *this = other;
    return;
  }
  const double delta = other.mean_ - mean_;
  const std::size_t total = count_ + other.count_;
  m2_ += other.m2_ + delta * delta * static_cast<double>(count_) *
                         static_cast<double>(other.count_) /
                         static_cast<double>(total);
  mean_ += delta * static_cast<double>(other.count_) /
           static_cast<double>(total);
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  count_ = total;
}

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), counts_(bins, 0) {
  ACS_REQUIRE(lo < hi, "Histogram requires lo < hi");
  ACS_REQUIRE(bins > 0, "Histogram requires at least one bin");
}

void Histogram::Add(double sample) {
  ++total_;
  if (sample < lo_) {
    ++underflow_;
    return;
  }
  if (sample >= hi_) {
    ++overflow_;
    return;
  }
  const double frac = (sample - lo_) / (hi_ - lo_);
  auto bin = static_cast<std::size_t>(frac * static_cast<double>(counts_.size()));
  bin = std::min(bin, counts_.size() - 1);
  ++counts_[bin];
}

double Histogram::bin_lo(std::size_t bin) const {
  ACS_REQUIRE(bin < counts_.size(), "bin out of range");
  return lo_ + (hi_ - lo_) * static_cast<double>(bin) /
                   static_cast<double>(counts_.size());
}

double Histogram::bin_hi(std::size_t bin) const {
  ACS_REQUIRE(bin < counts_.size(), "bin out of range");
  return lo_ + (hi_ - lo_) * static_cast<double>(bin + 1) /
                   static_cast<double>(counts_.size());
}

}  // namespace dvs::stats
