// Statistical test harness for workload::ScenarioCalibrator.
//
// Three families:
//   (1) convergence — the estimated per-task mean / stddev / quantiles
//       converge to closed-form values of the underlying law within a
//       fixed-sample-count tolerance (iid-normal against the analytic
//       truncated normal, bimodal against its two-mode mixture);
//   (2) determinism — Calibrate(set, seed) is bit-identical across calls,
//       for every registered scenario;
//   (3) contracts — draws clamped to [BCEC, WCEC], `sorted` ascending and
//       holding exactly the draws, sample vectors shaped (k x tasks) with
//       entries drawn from the calibration run.
//
// Tolerances: an N-sample mean of a law with dispersion sigma has standard
// error sigma / sqrt(N); bounds below use 5 standard errors (a ~3e-7
// false-positive rate) on deterministic seeds, so failures are regressions,
// not flakes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "model/task.h"
#include "model/workload.h"
#include "stats/distributions.h"
#include "workload/calibrator.h"
#include "workload/scenario.h"

namespace dvs::workload {
namespace {

/// A small set with deliberately different windows: one symmetric (ACEC at
/// the midpoint, so the truncated normal's mean and median coincide with
/// it), one asymmetric, one collapsed (BCEC == WCEC, the degenerate lane).
model::TaskSet CalibrationSet() {
  model::Task a;
  a.name = "sym";
  a.period = 10;
  a.bcec = 200.0;
  a.acec = 600.0;
  a.wcec = 1000.0;
  model::Task b;
  b.name = "asym";
  b.period = 20;
  b.bcec = 300.0;
  b.acec = 450.0;
  b.wcec = 1200.0;
  model::Task c;
  c.name = "fixed";
  c.period = 40;
  c.bcec = 500.0;
  c.acec = 500.0;
  c.wcec = 500.0;
  return model::TaskSet({a, b, c});
}

constexpr std::int64_t kSamples = 8192;
constexpr std::uint64_t kSeed = 20260731;

Calibration Calibrate(const char* scenario, std::int64_t samples = kSamples) {
  const model::TaskSet set = CalibrationSet();
  CalibratorOptions options;
  options.samples_per_task = samples;
  const ScenarioCalibrator calibrator(
      &ScenarioRegistry::Builtin().Get(scenario), 6.0, options);
  Calibration cal = calibrator.Calibrate(set, kSeed);
  // Calibrate leaves the sorted rows to their first reader
  // (core::MethodContext::SortedDraws); build them as it does.
  EXPECT_TRUE(cal.sorted.empty()) << scenario;
  cal.SortDraws();
  return cal;
}

/// Nearest-rank empirical quantile of task `task` at p in [0, 1]: the
/// smallest sorted draw whose empirical CDF reaches p.
double Quantile(const Calibration& cal, model::TaskIndex task, double p) {
  const std::vector<double>& samples = cal.sorted[task];
  const double rank = std::ceil(p * static_cast<double>(samples.size()));
  const std::size_t index = static_cast<std::size_t>(std::clamp(
      rank - 1.0, 0.0, static_cast<double>(samples.size() - 1)));
  return samples[index];
}

// (1) iid-normal converges to the analytic truncated normal.
TEST(ScenarioCalibrator, IidNormalMatchesClosedFormMoments) {
  const model::TaskSet set = CalibrationSet();
  const Calibration cal = Calibrate("iid-normal");

  for (model::TaskIndex i = 0; i < set.size(); ++i) {
    const model::Task& t = set.task(i);
    const double span = t.wcec - t.bcec;
    if (span == 0.0) {
      EXPECT_EQ(cal.mean[i], t.wcec) << t.name;
      EXPECT_EQ(cal.stddev[i], 0.0) << t.name;
      continue;
    }
    const stats::TruncatedNormal law(t.acec, span / 6.0, t.bcec, t.wcec);
    const double sigma = std::sqrt(law.Variance());
    const double mean_tol = 5.0 * sigma / std::sqrt(double(kSamples));
    EXPECT_NEAR(cal.mean[i], law.Mean(), mean_tol) << t.name;
    // Sample stddev converges at ~sigma / sqrt(2N); allow a generous 5x.
    EXPECT_NEAR(cal.stddev[i], sigma,
                5.0 * sigma / std::sqrt(2.0 * double(kSamples)))
        << t.name;
  }
}

TEST(ScenarioCalibrator, IidNormalSymmetricQuantilesMatchClosedForm) {
  const model::TaskSet set = CalibrationSet();
  const Calibration cal = Calibrate("iid-normal");

  // Task "sym": ACEC at the window midpoint => the truncated law is
  // symmetric about ACEC, so the median equals ACEC and the p25/p75
  // quantiles sit symmetrically around it.  Quantile estimates converge at
  // ~sigma * sqrt(p(1-p)) / (pdf * sqrt(N)); with sigma = span/6 a 5-SE
  // bound is ~6 cycles — use 8 for the pdf approximation slack.
  const model::Task& t = set.task(0);
  const double sigma = (t.wcec - t.bcec) / 6.0;
  const double q50 = Quantile(cal, 0, 0.5);
  const double q25 = Quantile(cal, 0, 0.25);
  const double q75 = Quantile(cal, 0, 0.75);
  EXPECT_NEAR(q50, t.acec, 8.0 * sigma / std::sqrt(double(kSamples)) *
                               std::sqrt(0.25) / stats::NormalPdf(0.0));
  EXPECT_NEAR(q75 - t.acec, t.acec - q25,
              16.0 * sigma / std::sqrt(double(kSamples)));
  // The closed-form p75 of the (effectively untruncated at 3-sigma) normal:
  // acec + 0.6745 sigma.
  EXPECT_NEAR(q75, t.acec + 0.674489750196082 * sigma,
              10.0 * sigma / std::sqrt(double(kSamples)) /
                  stats::NormalPdf(0.674489750196082));
}

// (1) bimodal converges to its documented two-mode mixture.
TEST(ScenarioCalibrator, BimodalMatchesClosedFormMixtureMean) {
  const model::TaskSet set = CalibrationSet();
  const Calibration cal = Calibrate("bimodal");

  for (model::TaskIndex i = 0; i < set.size(); ++i) {
    const model::Task& t = set.task(i);
    const double span = t.wcec - t.bcec;
    if (span == 0.0) {
      EXPECT_EQ(cal.mean[i], t.wcec) << t.name;
      continue;
    }
    // The documented process (workload/scenario.cc): hit mode at
    // BCEC + 0.2 span, miss mode at WCEC - 0.1 span, both sigma
    // span / (2 * sigma_divisor), mixed 3/4 : 1/4.
    const double mode_sigma = span / 12.0;
    const stats::TruncatedNormal hit(t.bcec + 0.2 * span, mode_sigma,
                                     t.bcec, t.wcec);
    const stats::TruncatedNormal miss(t.wcec - 0.1 * span, mode_sigma,
                                      t.bcec, t.wcec);
    const double mixture_mean = 0.75 * hit.Mean() + 0.25 * miss.Mean();
    // Mixture variance = E[mode variance] + Var[mode mean].
    const double gap = miss.Mean() - hit.Mean();
    const double mixture_var = 0.75 * hit.Variance() +
                               0.25 * miss.Variance() +
                               0.75 * 0.25 * gap * gap;
    const double tol =
        5.0 * std::sqrt(mixture_var / double(kSamples));
    EXPECT_NEAR(cal.mean[i], mixture_mean, tol) << t.name;
    // The median must fall in the hit mode (75% of the mass), far below
    // the mixture mean — the shape signature point planning exploits.
    EXPECT_LT(Quantile(cal, i, 0.5), mixture_mean) << t.name;
  }
}

// (2) bit-identical across calls, for every scenario.
TEST(ScenarioCalibrator, DeterministicAcrossRuns) {
  for (const std::string& name : ScenarioRegistry::Builtin().Names()) {
    const Calibration first = Calibrate(name.c_str(), 1024);
    const Calibration again = Calibrate(name.c_str(), 1024);
    EXPECT_EQ(first.mean, again.mean) << name;
    EXPECT_EQ(first.stddev, again.stddev) << name;
    EXPECT_EQ(first.draws, again.draws) << name;
    EXPECT_EQ(first.sorted, again.sorted) << name;
  }
}

// (3) contracts: clamping, `sorted` is the ascending draws, sample-vector
// shape.
TEST(ScenarioCalibrator, DrawsClampedAndSortedAscending) {
  const model::TaskSet set = CalibrationSet();
  for (const std::string& name : ScenarioRegistry::Builtin().Names()) {
    const Calibration cal = Calibrate(name.c_str(), 1024);
    for (model::TaskIndex i = 0; i < set.size(); ++i) {
      const model::Task& t = set.task(i);
      EXPECT_GE(cal.sorted[i].front(), t.bcec) << name << " " << t.name;
      EXPECT_LE(cal.sorted[i].back(), t.wcec) << name << " " << t.name;
      EXPECT_TRUE(std::is_sorted(cal.sorted[i].begin(), cal.sorted[i].end()))
          << name << " " << t.name;
      EXPECT_TRUE(std::is_permutation(cal.sorted[i].begin(),
                                      cal.sorted[i].end(),
                                      cal.draws[i].begin(), cal.draws[i].end()))
          << name << " " << t.name;
    }
  }
}

TEST(ScenarioCalibrator, SampleVectorsAreJointDrawsFromTheRun) {
  const model::TaskSet set = CalibrationSet();
  const Calibration cal = Calibrate("bursty", 1024);
  const std::vector<std::vector<double>> vectors = cal.SampleVectors(8);
  ASSERT_EQ(vectors.size(), 8u);
  for (const std::vector<double>& vec : vectors) {
    ASSERT_EQ(vec.size(), set.size());
    for (model::TaskIndex i = 0; i < set.size(); ++i) {
      // Every entry is literally one of task i's calibration draws.
      EXPECT_TRUE(std::binary_search(cal.sorted[i].begin(),
                                     cal.sorted[i].end(), vec[i]))
          << i;
    }
  }
}

}  // namespace
}  // namespace dvs::workload
