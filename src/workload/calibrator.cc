#include "workload/calibrator.h"

#include <algorithm>
#include <cmath>

#include "stats/rng.h"
#include "util/error.h"

namespace dvs::workload {

std::vector<std::vector<double>> Calibration::SampleVectors(
    std::int64_t k) const {
  ACS_REQUIRE(k >= 1, "mixture needs at least one sample vector");
  ACS_REQUIRE(k <= samples_per_task,
              "mixture size exceeds the calibration sample count");
  std::vector<std::vector<double>> vectors;
  vectors.reserve(static_cast<std::size_t>(k));
  for (std::int64_t j = 0; j < k; ++j) {
    // Midpoint-strided draw indices: (2j+1) * N / (2k) spreads the k joint
    // draws evenly through the run, so sticky processes (bursty phases,
    // AR(1) excursions) contribute both their regimes.
    const std::size_t index =
        static_cast<std::size_t>(((2 * j + 1) * samples_per_task) / (2 * k));
    std::vector<double> vec;
    vec.reserve(draws.size());
    for (const std::vector<double>& task_draws : draws) {
      vec.push_back(task_draws[index]);
    }
    vectors.push_back(std::move(vec));
  }
  return vectors;
}

void Calibration::SortDraws() {
  sorted = draws;
  for (std::vector<double>& row : sorted) {
    std::sort(row.begin(), row.end());
  }
}

ScenarioCalibrator::ScenarioCalibrator(const model::WorkloadScenario* scenario,
                                       double sigma_divisor,
                                       const CalibratorOptions& options)
    : scenario_(scenario), sigma_divisor_(sigma_divisor), options_(options) {
  ACS_REQUIRE(options_.samples_per_task >= 2,
              "calibration needs at least two samples per task");
}

Calibration ScenarioCalibrator::Calibrate(const model::TaskSet& set,
                                          std::uint64_t seed) const {
  const std::size_t tasks = set.size();
  const std::int64_t n = options_.samples_per_task;

  Calibration cal;
  cal.samples_per_task = n;
  cal.mean.assign(tasks, 0.0);
  cal.stddev.assign(tasks, 0.0);
  cal.draws.assign(tasks, {});

  // One task's calibration is a pure function of (scenario, sigma, set,
  // seed, task): its own sampler instance (so stateful per-task samplers
  // start from their reset state and never interleave with other tasks'
  // queries) and its own ForkWith(task)-derived stream.
  for (model::TaskIndex task = 0; task < tasks; ++task) {
    std::unique_ptr<model::WorkloadSampler> sampler =
        scenario_ != nullptr
            ? scenario_->MakeSampler(set, sigma_divisor_)
            : std::make_unique<model::TruncatedNormalWorkload>(
                  set, sigma_divisor_);
    stats::Rng rng =
        stats::Rng(seed).ForkWith(static_cast<std::uint64_t>(task));
    const model::Task& spec = set.task(task);

    std::vector<double>& draws = cal.draws[task];
    draws.resize(static_cast<std::size_t>(n));
    double sum = 0.0;
    for (std::int64_t j = 0; j < n; ++j) {
      const double cycles = std::clamp(sampler->SampleCycles(task, rng),
                                       spec.bcec, spec.wcec);
      draws[static_cast<std::size_t>(j)] = cycles;
      sum += cycles;
    }
    const double mean = sum / static_cast<double>(n);
    double sq = 0.0;
    for (double cycles : draws) {
      const double d = cycles - mean;
      sq += d * d;
    }
    cal.mean[task] = mean;
    cal.stddev[task] = std::sqrt(sq / static_cast<double>(n - 1));
  }
  return cal;
}

}  // namespace dvs::workload
