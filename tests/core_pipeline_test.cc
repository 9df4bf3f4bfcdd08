// Tests for the end-to-end experiment pipeline.
#include "core/pipeline.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "workload/motivation.h"
#include "workload/presets.h"
#include "workload/random_taskset.h"

namespace dvs::core {
namespace {

TEST(Pipeline, MotivationComparisonMatchesPaperShape) {
  const model::TaskSet set = workload::MotivationTaskSet();
  const model::LinearDvsModel cpu = workload::MotivationModel();
  ExperimentOptions options;
  options.hyper_periods = 50;
  options.seed = 99;
  const ComparisonResult result = CompareAcsWcs(set, cpu, options);
  EXPECT_EQ(result.sub_instances, 3u);
  EXPECT_EQ(result.acs.deadline_misses, 0);
  EXPECT_EQ(result.wcs.deadline_misses, 0);
  // Stochastic workloads centred on ACEC: improvement close to the
  // deterministic 24.7%, within a generous band.
  EXPECT_GT(result.Improvement(), 0.15);
  EXPECT_LT(result.Improvement(), 0.35);
}

TEST(Pipeline, IdenticalSeedsGiveIdenticalResults) {
  const model::LinearDvsModel cpu = workload::DefaultModel();
  stats::Rng rng(3);
  workload::RandomTaskSetOptions gen;
  gen.num_tasks = 4;
  const model::TaskSet set = workload::GenerateRandomTaskSet(gen, cpu, rng);
  ExperimentOptions options;
  options.hyper_periods = 20;
  options.seed = 5;
  const ComparisonResult a = CompareAcsWcs(set, cpu, options);
  const ComparisonResult b = CompareAcsWcs(set, cpu, options);
  EXPECT_DOUBLE_EQ(a.acs.measured_energy, b.acs.measured_energy);
  EXPECT_DOUBLE_EQ(a.wcs.measured_energy, b.wcs.measured_energy);
}

TEST(Pipeline, PredictedEnergyApproximatesMeasured) {
  // The NLP objective replays the ACEC scenario; measured energy under the
  // truncated normal should land within ~25% of it (Jensen gap + clamps).
  const model::LinearDvsModel cpu = workload::DefaultModel();
  stats::Rng rng(17);
  workload::RandomTaskSetOptions gen;
  gen.num_tasks = 5;
  gen.bcec_wcec_ratio = 0.5;
  const model::TaskSet set = workload::GenerateRandomTaskSet(gen, cpu, rng);
  ExperimentOptions options;
  options.hyper_periods = 100;
  options.seed = 23;
  const ComparisonResult result = CompareAcsWcs(set, cpu, options);
  EXPECT_GT(result.acs.measured_energy, 0.7 * result.acs.predicted_energy);
  EXPECT_LT(result.acs.measured_energy, 1.4 * result.acs.predicted_energy);
}

TEST(Pipeline, SimulateWithFixedAverageWorkload) {
  const model::TaskSet set = workload::MotivationTaskSet();
  const model::LinearDvsModel cpu = workload::MotivationModel();
  const fps::FullyPreemptiveSchedule fps(set);
  const sim::StaticSchedule schedule(fps, workload::MotivationAcsEndTimes(),
                                     {20.0e6, 20.0e6, 20.0e6});
  const model::FixedWorkload sampler(set, model::FixedScenario::kAverage);
  const sim::GreedyReclaimPolicy policy(cpu);
  stats::Rng rng(1);
  sim::SimOptions sim_options;
  sim_options.hyper_periods = 2;
  const sim::SimResult result =
      sim::Simulate(fps, schedule, cpu, policy, sampler, rng, sim_options);
  EXPECT_EQ(result.deadline_misses, 0);
  // Two hyper-periods of the deterministic 1.2e8 schedule.
  EXPECT_NEAR(result.total_energy, 2.4e8, 1e3);
}

TEST(Pipeline, SigmaDivisorPropagates) {
  const model::LinearDvsModel cpu = workload::DefaultModel();
  stats::Rng rng(29);
  workload::RandomTaskSetOptions gen;
  gen.num_tasks = 3;
  gen.bcec_wcec_ratio = 0.1;
  const model::TaskSet set = workload::GenerateRandomTaskSet(gen, cpu, rng);
  ExperimentOptions narrow;
  narrow.hyper_periods = 50;
  narrow.seed = 7;
  narrow.sigma_divisor = 100.0;  // nearly deterministic at ACEC
  ExperimentOptions wide = narrow;
  wide.sigma_divisor = 3.0;
  const ComparisonResult rn = CompareAcsWcs(set, cpu, narrow);
  const ComparisonResult rw = CompareAcsWcs(set, cpu, wide);
  // Both must be deadline-clean; the energies differ because the workload
  // spread differs.
  EXPECT_EQ(rn.acs.deadline_misses, 0);
  EXPECT_EQ(rw.acs.deadline_misses, 0);
  EXPECT_NE(rn.acs.measured_energy, rw.acs.measured_energy);
}

// Regression for the zero-baseline bug: the ratio used to divide by zero
// silently.  Now the degenerate cases are explicit — NaN for non-finite
// inputs, signed infinity for a zero baseline (sign says which side won) —
// so sinks can detect and skip them instead of emitting "inf"/"nan".
TEST(Pipeline, ImprovementRatioHandlesDegenerateBaselines) {
  EXPECT_DOUBLE_EQ(ImprovementRatio(10.0, 7.5), 0.25);
  EXPECT_DOUBLE_EQ(ImprovementRatio(10.0, 12.5), -0.25);
  // Zero baseline, zero method: a tie, reported as no improvement.
  EXPECT_DOUBLE_EQ(ImprovementRatio(0.0, 0.0), 0.0);
  // Zero baseline, positive method: infinitely worse than the baseline.
  EXPECT_TRUE(std::isinf(ImprovementRatio(0.0, 1.0)));
  EXPECT_LT(ImprovementRatio(0.0, 1.0), 0.0);
  EXPECT_GT(ImprovementRatio(0.0, -1.0), 0.0);
  // Non-finite inputs propagate as NaN, never as a plausible-looking ratio.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_TRUE(std::isnan(ImprovementRatio(nan, 1.0)));
  EXPECT_TRUE(std::isnan(ImprovementRatio(1.0, inf)));
}

}  // namespace
}  // namespace dvs::core
