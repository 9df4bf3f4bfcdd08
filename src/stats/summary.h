// Streaming and batch summary statistics for experiment aggregation.
#ifndef ACS_STATS_SUMMARY_H
#define ACS_STATS_SUMMARY_H

#include <cstddef>
#include <vector>

namespace dvs::stats {

/// Welford online accumulator: numerically stable mean/variance without
/// storing samples.  Used to aggregate per-task-set energy improvements.
class OnlineStats {
 public:
  void Add(double sample);

  std::size_t count() const { return count_; }
  double mean() const;
  double variance() const;  // sample variance (n-1); 0 when count < 2
  double stddev() const;
  double min() const;
  double max() const;

  /// Merges another accumulator (parallel-combinable).
  void Merge(const OnlineStats& other);

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Fixed-width histogram for diagnostics.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins);

  void Add(double sample);
  std::size_t bin_count() const { return counts_.size(); }
  std::size_t count(std::size_t bin) const { return counts_.at(bin); }
  std::size_t total() const { return total_; }
  std::size_t underflow() const { return underflow_; }
  std::size_t overflow() const { return overflow_; }
  double bin_lo(std::size_t bin) const;
  double bin_hi(std::size_t bin) const;

 private:
  double lo_;
  double hi_;
  std::vector<std::size_t> counts_;
  std::size_t total_ = 0;
  std::size_t underflow_ = 0;
  std::size_t overflow_ = 0;
};

}  // namespace dvs::stats

#endif  // ACS_STATS_SUMMARY_H
