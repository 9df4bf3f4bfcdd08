// Integration tests that pin the reproduction to the paper's numbers and
// claimed trends (§2.2 and §4).
#include <gtest/gtest.h>

#include "core/pipeline.h"
#include "core/scheduler.h"
#include "fps/expansion.h"
#include "model/workload.h"
#include "sim/engine.h"
#include "sim/policy.h"
#include "workload/cnc.h"
#include "workload/gap.h"
#include "workload/motivation.h"
#include "workload/presets.h"
#include "workload/random_taskset.h"

namespace dvs {
namespace {

// --- §2.2: the motivational example, end to end ----------------------------

TEST(PaperMotivation, Figure1StaticScheduleAndGreedyRuntime) {
  const model::TaskSet set = workload::MotivationTaskSet();
  const model::LinearDvsModel cpu = workload::MotivationModel();
  const fps::FullyPreemptiveSchedule fps(set);
  const sim::StaticSchedule wcs(fps, workload::MotivationWcsEndTimes(),
                                {20.0e6, 20.0e6, 20.0e6});
  // Greedy runtime under ACEC: finishes at 3.33 / 8.33 / 14.05 ms — the
  // tick marks of the paper's Figure 1(b).
  const model::FixedWorkload avg(set, model::FixedScenario::kAverage);
  const sim::GreedyReclaimPolicy policy(cpu);
  stats::Rng rng(1);
  sim::SimOptions options;
  options.record_trace = true;
  const sim::SimResult result =
      sim::Simulate(fps, wcs, cpu, policy, avg, rng, options);
  ASSERT_EQ(result.trace.size(), 3u);
  EXPECT_NEAR(result.trace.slices()[0].end, 10.0 / 3.0, 0.01);
  EXPECT_NEAR(result.trace.slices()[1].end, 25.0 / 3.0, 0.01);
  // 8.333 + 1e7 cycles at 12/7 V = 14.167 (the paper's "14.1" tick).
  EXPECT_NEAR(result.trace.slices()[2].end, 85.0 / 6.0, 0.01);
  // Voltages 3 V, 2 V, ~1.71 V.
  EXPECT_NEAR(result.trace.slices()[0].voltage, 3.0, 1e-6);
  EXPECT_NEAR(result.trace.slices()[1].voltage, 2.0, 1e-6);
  EXPECT_NEAR(result.trace.slices()[2].voltage, 12.0 / 7.0, 1e-3);
}

TEST(PaperMotivation, Figure2TwentyFourPercent) {
  const model::TaskSet set = workload::MotivationTaskSet();
  const model::LinearDvsModel cpu = workload::MotivationModel();
  const fps::FullyPreemptiveSchedule fps(set);
  const std::vector<double> budgets(3, 20.0e6);
  const sim::StaticSchedule wcs(fps, workload::MotivationWcsEndTimes(),
                                budgets);
  const sim::StaticSchedule acs(fps, workload::MotivationAcsEndTimes(),
                                budgets);
  const model::FixedWorkload avg(set, model::FixedScenario::kAverage);
  const sim::GreedyReclaimPolicy policy(cpu);
  stats::Rng r1(1), r2(2);
  const double e_wcs =
      sim::Simulate(fps, wcs, cpu, policy, avg, r1).total_energy;
  const double e_acs =
      sim::Simulate(fps, acs, cpu, policy, avg, r2).total_energy;
  EXPECT_NEAR((e_wcs - e_acs) / e_wcs, 0.247, 0.01);  // paper: 24%
}

TEST(PaperMotivation, WorstCaseThirtyThreePercentPenaltyAnd4V) {
  const model::TaskSet set = workload::MotivationTaskSet();
  const model::LinearDvsModel cpu = workload::MotivationModel();
  const fps::FullyPreemptiveSchedule fps(set);
  const std::vector<double> budgets(3, 20.0e6);
  const sim::StaticSchedule wcs(fps, workload::MotivationWcsEndTimes(),
                                budgets);
  const sim::StaticSchedule acs(fps, workload::MotivationAcsEndTimes(),
                                budgets);
  const model::FixedWorkload worst(set, model::FixedScenario::kWorst);
  const sim::GreedyReclaimPolicy policy(cpu);
  stats::Rng r1(1), r2(2);
  sim::SimOptions options;
  options.record_trace = true;
  const sim::SimResult rw =
      sim::Simulate(fps, wcs, cpu, policy, worst, r1, options);
  const sim::SimResult ra =
      sim::Simulate(fps, acs, cpu, policy, worst, r2, options);
  EXPECT_EQ(rw.deadline_misses, 0);
  EXPECT_EQ(ra.deadline_misses, 0);
  EXPECT_NEAR((ra.total_energy - rw.total_energy) / rw.total_energy, 0.333,
              0.01);  // paper: 33% increase
  // "4V is needed for both T2 and T3 in order to meet the timing
  // constraints" under the alternative schedule.
  double max_v = 0.0;
  for (const sim::ExecutionSlice& s : ra.trace.slices()) {
    max_v = std::max(max_v, s.voltage);
  }
  EXPECT_NEAR(max_v, 4.0, 1e-6);
}

// --- §4 trends --------------------------------------------------------------

struct TrendPoint {
  double ratio;
  double improvement;
};

TrendPoint RunPoint(int num_tasks, double ratio, std::uint64_t seed) {
  const model::LinearDvsModel cpu = workload::DefaultModel();
  stats::Rng rng(seed);
  workload::RandomTaskSetOptions gen;
  gen.num_tasks = num_tasks;
  gen.bcec_wcec_ratio = ratio;
  const model::TaskSet set = workload::GenerateRandomTaskSet(gen, cpu, rng);
  core::ExperimentOptions options;
  options.hyper_periods = 60;
  options.seed = seed * 13 + 1;
  const core::ComparisonResult result = core::CompareAcsWcs(set, cpu, options);
  EXPECT_EQ(result.acs.deadline_misses, 0);
  EXPECT_EQ(result.wcs.deadline_misses, 0);
  return {ratio, result.Improvement()};
}

TEST(PaperTrends, ImprovementFallsWithBcecWcecRatio) {
  // Average a few seeds per ratio to tame noise.
  double lo = 0.0;
  double hi = 0.0;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    lo += RunPoint(6, 0.1, seed).improvement;
    hi += RunPoint(6, 0.9, seed).improvement;
  }
  EXPECT_GT(lo / 3.0, hi / 3.0);
  EXPECT_GT(lo / 3.0, 0.10);  // meaningful savings at high flexibility
  EXPECT_LT(hi / 3.0, 0.15);  // little room at nearly fixed workloads
}

TEST(PaperTrends, AcsNeverLosesMeaningfully) {
  // ACS with its own schedule must never consume meaningfully more energy
  // than WCS on the same workloads.
  for (std::uint64_t seed = 10; seed < 16; ++seed) {
    const TrendPoint p = RunPoint(4, 0.5, seed);
    EXPECT_GT(p.improvement, -0.02) << "seed " << seed;
  }
}

TEST(PaperRealLife, CncAndGapImproveAtHighFlexibility) {
  const model::LinearDvsModel cpu = workload::DefaultModel();
  core::ExperimentOptions options;
  options.hyper_periods = 40;
  options.seed = 5;

  workload::CncOptions cnc;
  cnc.bcec_wcec_ratio = 0.1;
  const core::ComparisonResult rc =
      core::CompareAcsWcs(workload::CncTaskSet(cnc, cpu), cpu, options);
  EXPECT_EQ(rc.acs.deadline_misses, 0);
  EXPECT_GT(rc.Improvement(), 0.10);

  workload::GapOptions gap;
  gap.bcec_wcec_ratio = 0.1;
  const core::ComparisonResult rg =
      core::CompareAcsWcs(workload::GapTaskSet(gap, cpu), cpu, options);
  EXPECT_EQ(rg.acs.deadline_misses, 0);
  EXPECT_GT(rg.Improvement(), 0.05);
}

// --- Safety property: zero misses under adversarial workloads ---------------

class WorstCaseSafetyTest : public ::testing::TestWithParam<int> {};

TEST_P(WorstCaseSafetyTest, NoMissesEvenWhenEveryInstanceTakesWcec) {
  const model::LinearDvsModel cpu = workload::DefaultModel();
  stats::Rng rng(static_cast<std::uint64_t>(GetParam()) * 101 + 3);
  workload::RandomTaskSetOptions gen;
  gen.num_tasks = 2 + GetParam() % 8;
  gen.bcec_wcec_ratio = 0.1 + 0.1 * (GetParam() % 9);
  const model::TaskSet set = workload::GenerateRandomTaskSet(gen, cpu, rng);
  const fps::FullyPreemptiveSchedule fps(set);

  const core::ScheduleResult wcs = core::SolveWcs(fps, cpu);
  const core::ScheduleResult acs = core::SolveSchedule(
      fps, cpu, core::Scenario::kAverage, wcs.schedule);

  const model::FixedWorkload adversary(set, model::FixedScenario::kWorst);
  const sim::GreedyReclaimPolicy policy(cpu);
  for (const sim::StaticSchedule* schedule :
       {&wcs.schedule, &acs.schedule}) {
    stats::Rng srng(1);
    sim::SimOptions options;
    options.hyper_periods = 3;
    const sim::SimResult result =
        sim::Simulate(fps, *schedule, cpu, policy, adversary, srng, options);
    EXPECT_EQ(result.deadline_misses, 0)
        << "seed " << GetParam() << ": " << result.first_miss;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WorstCaseSafetyTest, ::testing::Range(0, 10));

}  // namespace
}  // namespace dvs
