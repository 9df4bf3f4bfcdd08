// Tests for StaticSchedule, the worst-case feasibility audit and the
// Vmax-ASAP schedule builder.
#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "fps/expansion.h"
#include "sim/engine.h"
#include "sim/static_schedule.h"
#include "util/error.h"
#include "workload/motivation.h"
#include "workload/presets.h"

namespace dvs::sim {
namespace {

model::Task MakeTask(std::string name, std::int64_t period, double wcec) {
  model::Task t;
  t.name = std::move(name);
  t.period = period;
  t.wcec = wcec;
  t.acec = 0.6 * wcec;
  t.bcec = 0.2 * wcec;
  return t;
}

TEST(StaticSchedule, ValidatesSizes) {
  const model::TaskSet set({MakeTask("a", 10, 4.0)});
  const fps::FullyPreemptiveSchedule fps(set);
  EXPECT_NO_THROW(StaticSchedule(fps, {10.0}, {4.0}));
  EXPECT_THROW(StaticSchedule(fps, {10.0, 20.0}, {4.0}),
               util::InvalidArgumentError);
  EXPECT_THROW(StaticSchedule(fps, {10.0}, {}), util::InvalidArgumentError);
  EXPECT_THROW(StaticSchedule(fps, {10.0}, {-1.0}),
               util::InvalidArgumentError);
}

TEST(StaticSchedule, RejectsNonFiniteValues) {
  const model::TaskSet set({MakeTask("a", 10, 4.0)});
  const fps::FullyPreemptiveSchedule fps(set);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(StaticSchedule(fps, {nan}, {4.0}), util::InvalidArgumentError);
  EXPECT_THROW(StaticSchedule(fps, {inf}, {4.0}), util::InvalidArgumentError);
  EXPECT_THROW(StaticSchedule(fps, {10.0}, {nan}),
               util::InvalidArgumentError);
  EXPECT_THROW(StaticSchedule(fps, {10.0}, {inf}),
               util::InvalidArgumentError);
}

// A model whose top speed is NaN: every chain value computed from it is NaN,
// and every comparison with NaN is false.
class NanSpeedModel final : public model::DvsModel {
 public:
  double vmin() const override { return 0.5; }
  double vmax() const override { return 4.0; }
  double ceff() const override { return 1.0; }
  double SpeedAt(double) const override {
    return std::numeric_limits<double>::quiet_NaN();
  }
  double VoltageForSpeed(double speed) const override { return speed; }
};

TEST(VerifyWorstCase, ReportsNonFiniteChainInfeasible) {
  const model::TaskSet set({MakeTask("a", 10, 4.0), MakeTask("b", 20, 6.0)});
  const fps::FullyPreemptiveSchedule fps(set);
  const StaticSchedule schedule =
      BuildVmaxAsapSchedule(fps, workload::DefaultModel());
  ASSERT_TRUE(VerifyWorstCase(fps, schedule, workload::DefaultModel())
                  .feasible);
  const FeasibilityReport report =
      VerifyWorstCase(fps, schedule, NanSpeedModel());
  EXPECT_FALSE(report.feasible);
  EXPECT_NE(report.detail.find("non-finite"), std::string::npos)
      << report.detail;
}

TEST(VerifyWorstCase, AcceptsTheMotivationSchedules) {
  const model::TaskSet set = workload::MotivationTaskSet();
  const model::LinearDvsModel cpu = workload::MotivationModel();
  const fps::FullyPreemptiveSchedule fps(set);
  const std::vector<double> budgets(3, 20.0e6);

  const StaticSchedule wcs(fps, workload::MotivationWcsEndTimes(), budgets);
  const FeasibilityReport wcs_report = VerifyWorstCase(fps, wcs, cpu);
  EXPECT_TRUE(wcs_report.feasible) << wcs_report.detail;

  const StaticSchedule acs(fps, workload::MotivationAcsEndTimes(), budgets);
  const FeasibilityReport acs_report = VerifyWorstCase(fps, acs, cpu);
  EXPECT_TRUE(acs_report.feasible) << acs_report.detail;
  // The ACS schedule is exactly chain-tight: each worst-case window is
  // 5 ms = WCEC * t_cyc(4V).
  EXPECT_NEAR(acs_report.worst_slack, 0.0, 1e-6);
}

TEST(VerifyWorstCase, RejectsUnreachableEndTime) {
  const model::TaskSet set = workload::MotivationTaskSet();
  const model::LinearDvsModel cpu = workload::MotivationModel();
  const fps::FullyPreemptiveSchedule fps(set);
  const std::vector<double> budgets(3, 20.0e6);
  // Task 1 end at 4 ms: needs 20 V*ms / 4 ms = 5 V > Vmax.
  const StaticSchedule bad(fps, {4.0, 15.0, 20.0}, budgets);
  const FeasibilityReport report = VerifyWorstCase(fps, bad, cpu);
  EXPECT_FALSE(report.feasible);
  EXPECT_LT(report.worst_slack, 0.0);
}

TEST(VerifyWorstCase, RejectsChainViolation) {
  const model::TaskSet set = workload::MotivationTaskSet();
  const model::LinearDvsModel cpu = workload::MotivationModel();
  const fps::FullyPreemptiveSchedule fps(set);
  const std::vector<double> budgets(3, 20.0e6);
  // Second end-time only 2 ms after the first; needs 5 ms at Vmax.
  const StaticSchedule bad(fps, {10.0, 12.0, 20.0}, budgets);
  EXPECT_FALSE(VerifyWorstCase(fps, bad, cpu).feasible);
}

TEST(VerifyWorstCase, RejectsBudgetLoss) {
  const model::TaskSet set = workload::MotivationTaskSet();
  const model::LinearDvsModel cpu = workload::MotivationModel();
  const fps::FullyPreemptiveSchedule fps(set);
  const StaticSchedule bad(fps, {10.0, 15.0, 20.0},
                           {20.0e6, 10.0e6, 20.0e6});  // half of task2 lost
  const FeasibilityReport report = VerifyWorstCase(fps, bad, cpu);
  EXPECT_FALSE(report.feasible);
  EXPECT_NE(report.detail.find("sum"), std::string::npos);
}

TEST(VerifyWorstCase, RejectsEndTimeOutsideSegment) {
  const model::TaskSet set({MakeTask("hi", 5, 2.0), MakeTask("lo", 10, 2.0)});
  const model::LinearDvsModel cpu = workload::DefaultModel();
  const fps::FullyPreemptiveSchedule fps(set);
  StaticSchedule good = BuildVmaxAsapSchedule(fps, cpu);
  // Move the low task's first sub-instance end past its segment (5.0).
  std::vector<double> ends(good.end_times());
  std::vector<double> budgets(good.worst_budgets());
  for (std::size_t u = 0; u < fps.sub_count(); ++u) {
    if (fps.sub(u).task == 1 && fps.sub(u).k == 0) {
      ends[u] = 7.0;
    }
  }
  const StaticSchedule bad(fps, ends, budgets);
  const FeasibilityReport report = VerifyWorstCase(fps, bad, cpu);
  EXPECT_FALSE(report.feasible);
  EXPECT_NE(report.detail.find("segment"), std::string::npos);
}

TEST(BuildVmaxAsap, ProducesFeasibleSchedule) {
  const model::TaskSet set({MakeTask("a", 10, 8.0), MakeTask("b", 20, 10.0),
                            MakeTask("c", 40, 20.0)});
  const model::LinearDvsModel cpu = workload::DefaultModel();
  const fps::FullyPreemptiveSchedule fps(set);
  const StaticSchedule schedule = BuildVmaxAsapSchedule(fps, cpu);
  const FeasibilityReport report = VerifyWorstCase(fps, schedule, cpu);
  EXPECT_TRUE(report.feasible) << report.detail;
}

TEST(BuildVmaxAsap, BudgetsConservePerInstance) {
  const model::TaskSet set({MakeTask("a", 10, 8.0), MakeTask("b", 30, 20.0)});
  const model::LinearDvsModel cpu = workload::DefaultModel();
  const fps::FullyPreemptiveSchedule fps(set);
  const StaticSchedule schedule = BuildVmaxAsapSchedule(fps, cpu);
  for (const fps::InstanceRecord& rec : fps.instances()) {
    double total = 0.0;
    for (std::size_t order : rec.subs) {
      total += schedule.worst_budget(order);
    }
    EXPECT_NEAR(total, set.task(rec.info.task).wcec, 1e-9);
  }
}

TEST(BuildVmaxAsap, ThrowsOnOverload) {
  // Utilisation 1.25 at Vmax cannot be RM-schedulable.
  const model::LinearDvsModel cpu = workload::DefaultModel();  // speed 4
  const model::TaskSet set({MakeTask("a", 10, 50.0)});         // needs 12.5
  const fps::FullyPreemptiveSchedule fps(set);
  EXPECT_THROW(BuildVmaxAsapSchedule(fps, cpu), util::InfeasibleError);
  EXPECT_FALSE(IsRmSchedulable(fps, cpu));
}

TEST(BuildVmaxAsap, DetectsRmInfeasibleDespiteLowUtilization) {
  // Classic RM-infeasible structure needs non-harmonic periods and tight
  // deadlines; with U < 1 but a long low-priority task squeezed by a
  // high-priority one.  U = 0.5/1 at speed 4: a: 20 cycles / P10 -> 0.5;
  // b: 82 cycles / P41 -> 0.5.  b must place 82 cycles (20.5 time units at
  // Vmax) into 41 - 4*2.5(busy) ... verify via the exact test instead of
  // hand arithmetic: utilisation just above what fits.
  const model::LinearDvsModel cpu = workload::DefaultModel();
  const model::TaskSet tight({MakeTask("a", 10, 22.0),
                              MakeTask("b", 41, 90.0)});
  const fps::FullyPreemptiveSchedule fps(tight);
  // The exact test decides; we only require consistency between the two
  // entry points.
  EXPECT_EQ(IsRmSchedulable(fps, cpu),
            [&] {
              try {
                BuildVmaxAsapSchedule(fps, cpu);
                return true;
              } catch (const util::InfeasibleError&) {
                return false;
              }
            }());
}

TEST(ComputeWorstStarts, ChainMatchesAudit) {
  const model::TaskSet set = workload::MotivationTaskSet();
  const model::LinearDvsModel cpu = workload::MotivationModel();
  const fps::FullyPreemptiveSchedule fps(set);
  const std::vector<double> budgets(3, 20.0e6);
  const StaticSchedule acs(fps, workload::MotivationAcsEndTimes(), budgets);
  const std::vector<double> starts = ComputeWorstStarts(fps, acs, cpu);
  ASSERT_EQ(starts.size(), 3u);
  EXPECT_DOUBLE_EQ(starts[0], 0.0);
  EXPECT_DOUBLE_EQ(starts[1], 10.0);  // after task1's end-time
  EXPECT_DOUBLE_EQ(starts[2], 15.0);
}

}  // namespace
}  // namespace dvs::sim
