// Tests for the reduced NLP formulation: forward replay semantics and the
// analytic gradient (checked against central finite differences).
#include "core/formulation.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/scheduler.h"
#include "fps/expansion.h"
#include "opt/finite_diff.h"
#include "sim/engine.h"
#include "stats/rng.h"
#include "util/error.h"
#include "workload/motivation.h"
#include "workload/presets.h"
#include "workload/random_taskset.h"

namespace dvs::core {
namespace {

model::Task MakeTask(std::string name, std::int64_t period, double wcec,
                     double acec_frac) {
  model::Task t;
  t.name = std::move(name);
  t.period = period;
  t.wcec = wcec;
  t.acec = acec_frac * wcec;
  t.bcec = 0.25 * wcec;
  return t;
}

TEST(Formulation, MotivationObjectiveValues) {
  // The §2.2 walk-through: average energy of the two candidate schedules.
  const model::TaskSet set = workload::MotivationTaskSet();
  const model::LinearDvsModel cpu = workload::MotivationModel();
  const fps::FullyPreemptiveSchedule fps(set);
  const EnergyObjective objective(fps, cpu, Scenario::kAverage);
  ASSERT_EQ(objective.dim(), 3u);  // three end-times, no split instances

  const std::vector<double> budgets(3, 20.0e6);
  const sim::StaticSchedule wcs(fps, workload::MotivationWcsEndTimes(),
                                budgets);
  const sim::StaticSchedule acs(fps, workload::MotivationAcsEndTimes(),
                                budgets);
  const double e_wcs = objective.Value(objective.PackSchedule(wcs));
  const double e_acs = objective.Value(objective.PackSchedule(acs));
  // Hand-computed in DESIGN.md: 1.5936e8 vs 1.2e8 -> 24.7% improvement.
  EXPECT_NEAR(e_wcs, 1.5936e8, 1e5);
  EXPECT_NEAR(e_acs, 1.2e8, 1e3);
  EXPECT_NEAR((e_wcs - e_acs) / e_wcs, 0.247, 0.005);
}

TEST(Formulation, WorstScenarioMatchesWorstCaseEnergy) {
  const model::TaskSet set = workload::MotivationTaskSet();
  const model::LinearDvsModel cpu = workload::MotivationModel();
  const fps::FullyPreemptiveSchedule fps(set);
  const EnergyObjective objective(fps, cpu, Scenario::kWorst);
  const std::vector<double> budgets(3, 20.0e6);
  const sim::StaticSchedule wcs(fps, workload::MotivationWcsEndTimes(),
                                budgets);
  const sim::StaticSchedule acs(fps, workload::MotivationAcsEndTimes(),
                                budgets);
  // All three tasks at 3 V: 9 * 6e7 = 5.4e8; ACS worst: 4+16+16 = 7.2e8.
  EXPECT_NEAR(objective.Value(objective.PackSchedule(wcs)), 5.4e8, 1e4);
  EXPECT_NEAR(objective.Value(objective.PackSchedule(acs)), 7.2e8, 1e4);
}

TEST(Formulation, ReplayExposesChain) {
  const model::TaskSet set = workload::MotivationTaskSet();
  const model::LinearDvsModel cpu = workload::MotivationModel();
  const fps::FullyPreemptiveSchedule fps(set);
  const EnergyObjective objective(fps, cpu, Scenario::kAverage);
  const sim::StaticSchedule acs(fps, workload::MotivationAcsEndTimes(),
                                {20.0e6, 20.0e6, 20.0e6});
  const ForwardDetail detail = objective.Replay(objective.PackSchedule(acs));
  // Paper Fig. 2 runtime: starts 0 / 5 / 10, finishes 5 / 10 / 15, all 2 V.
  EXPECT_NEAR(detail.start[0], 0.0, 1e-9);
  EXPECT_NEAR(detail.finish[0], 5.0, 1e-9);
  EXPECT_NEAR(detail.start[1], 5.0, 1e-9);
  EXPECT_NEAR(detail.finish[1], 10.0, 1e-9);
  EXPECT_NEAR(detail.start[2], 10.0, 1e-9);
  EXPECT_NEAR(detail.finish[2], 15.0, 1e-9);
  for (double v : detail.voltage) {
    EXPECT_NEAR(v, 2.0, 1e-9);
  }
}

TEST(Formulation, BudgetVariablesOnlyForSplitInstances) {
  const model::TaskSet set({MakeTask("hi", 5, 4.0, 0.5),
                            MakeTask("lo", 10, 6.0, 0.5)});
  const fps::FullyPreemptiveSchedule fps(set);
  const model::LinearDvsModel cpu = workload::DefaultModel();
  const EnergyObjective objective(fps, cpu, Scenario::kAverage);
  // Subs: hi[0], hi[1] single-sub; lo split into 2 -> 2 budget variables.
  EXPECT_EQ(fps.sub_count(), 4u);
  EXPECT_EQ(objective.dim(), 4u + 2u);
  int with_budget = 0;
  for (std::size_t u = 0; u < fps.sub_count(); ++u) {
    if (objective.HasBudgetVariable(u)) {
      ++with_budget;
    } else {
      EXPECT_THROW(objective.budget_index(u), util::InvalidArgumentError);
    }
  }
  EXPECT_EQ(with_budget, 2);
}

TEST(Formulation, PackExtractRoundTrip) {
  const model::TaskSet set({MakeTask("hi", 5, 4.0, 0.5),
                            MakeTask("lo", 10, 6.0, 0.5)});
  const fps::FullyPreemptiveSchedule fps(set);
  const model::LinearDvsModel cpu = workload::DefaultModel();
  const EnergyObjective objective(fps, cpu, Scenario::kAverage);
  const sim::StaticSchedule schedule = sim::BuildVmaxAsapSchedule(fps, cpu);
  const opt::Vector x = objective.PackSchedule(schedule);
  const sim::StaticSchedule back = objective.ExtractSchedule(x);
  for (std::size_t u = 0; u < fps.sub_count(); ++u) {
    EXPECT_DOUBLE_EQ(back.end_time(u), schedule.end_time(u));
    EXPECT_DOUBLE_EQ(back.worst_budget(u), schedule.worst_budget(u));
  }
}

TEST(Formulation, ChainConstraintsHoldOnVmaxAsap) {
  const model::TaskSet set({MakeTask("a", 10, 8.0, 0.6),
                            MakeTask("b", 20, 12.0, 0.6),
                            MakeTask("c", 40, 16.0, 0.6)});
  const fps::FullyPreemptiveSchedule fps(set);
  const model::LinearDvsModel cpu = workload::DefaultModel();
  const EnergyObjective objective(fps, cpu, Scenario::kAverage);
  const opt::Vector x =
      objective.PackSchedule(sim::BuildVmaxAsapSchedule(fps, cpu));
  for (const opt::LinearConstraint& con : objective.BuildChainConstraints()) {
    EXPECT_GE(con.Evaluate(x), -1e-9) << con.name;
  }
}

TEST(Formulation, FeasibleSetProjectionKeepsVmaxAsapFixed) {
  const model::TaskSet set({MakeTask("a", 10, 8.0, 0.6),
                            MakeTask("b", 20, 12.0, 0.6)});
  const fps::FullyPreemptiveSchedule fps(set);
  const model::LinearDvsModel cpu = workload::DefaultModel();
  const EnergyObjective objective(fps, cpu, Scenario::kAverage);
  opt::Vector x =
      objective.PackSchedule(sim::BuildVmaxAsapSchedule(fps, cpu));
  const opt::Vector before = x;
  objective.BuildFeasibleSet()->Project(x);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(x[i], before[i], 1e-9);
  }
}

// --- Gradient verification -------------------------------------------------

class GradientCheckTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(GradientCheckTest, AnalyticMatchesFiniteDifference) {
  const auto [seed, scenario_int] = GetParam();
  const Scenario scenario =
      scenario_int == 0 ? Scenario::kAverage : Scenario::kWorst;
  const model::LinearDvsModel cpu = workload::DefaultModel();
  stats::Rng rng(static_cast<std::uint64_t>(seed) * 31 + 5);
  workload::RandomTaskSetOptions gen;
  gen.num_tasks = 3 + seed % 3;
  gen.bcec_wcec_ratio = 0.4;
  const model::TaskSet set = workload::GenerateRandomTaskSet(gen, cpu, rng);
  const fps::FullyPreemptiveSchedule fps(set);
  const EnergyObjective objective(fps, cpu, scenario);

  // Build a generic interior point: end-times jittered inside their
  // effective windows, budgets jittered around a uniform split.  (The
  // Vmax-ASAP point sits exactly on the w = 0 clamp and V = Vmax kinks,
  // and equal-period tasks create exact max()-branch ties at symmetric
  // points, where central differences straddle one-sided derivatives.)
  stats::Rng jitter(static_cast<std::uint64_t>(seed) * 977 + 13);
  opt::Vector x = objective.PackSchedule(sim::BuildVmaxAsapSchedule(fps, cpu));
  const std::vector<double>& cap = fps.effective_end_bounds();
  for (std::size_t u = 0; u < fps.sub_count(); ++u) {
    const fps::SubInstance& sub = fps.sub(u);
    // Gradient checks need generic positions, not feasible ones: keeping
    // the ASAP value would leave capacity-tight segments exactly on the
    // V = Vmax clamp kink.
    const double frac = jitter.Uniform(0.45, 0.9);
    x[u] = sub.seg_begin + frac * (cap[u] - sub.seg_begin);
  }
  for (const fps::InstanceRecord& rec : fps.instances()) {
    if (rec.subs.size() < 2) continue;
    const double share = set.task(rec.info.task).wcec /
                         static_cast<double>(rec.subs.size());
    for (std::size_t order : rec.subs) {
      x[objective.budget_index(order)] = share * jitter.Uniform(0.7, 1.3);
    }
  }
  objective.BuildFeasibleSet()->Project(x);

  // Per-coordinate comparison; tolerate at most two kink-straddling
  // coordinates (piecewise-smooth objective: exact branch ties carry
  // one-sided derivatives that central differences cannot resolve).
  opt::Vector analytic(x.size(), 0.0);
  objective.Gradient(x, analytic);
  const opt::Vector numeric = opt::FiniteDifferenceGradient(objective, x, 1e-7);
  std::vector<double> errors(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    errors[i] = std::fabs(analytic[i] - numeric[i]) /
                std::max({std::fabs(analytic[i]), std::fabs(numeric[i]), 1.0});
  }
  std::sort(errors.begin(), errors.end());
  const double robust_err = errors[errors.size() >= 3 ? errors.size() - 3 : 0];
  EXPECT_LT(robust_err, 1e-3) << "seed " << seed << " scenario "
                              << scenario_int << " worst " << errors.back();
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, GradientCheckTest,
    ::testing::Combine(::testing::Range(0, 6), ::testing::Values(0, 1)));

TEST(Formulation, GradientExactOnMotivationInterior) {
  const model::TaskSet set = workload::MotivationTaskSet();
  const model::LinearDvsModel cpu = workload::MotivationModel();
  const fps::FullyPreemptiveSchedule fps(set);
  const EnergyObjective objective(fps, cpu, Scenario::kAverage);
  const opt::Vector x{8.0, 14.0, 19.0};  // strictly interior point
  EXPECT_LT(opt::GradientCheck(objective, x, 1e-3), 1e-6);
}

TEST(Formulation, RejectsNonFinitePlanningEntries) {
  const model::TaskSet set = workload::MotivationTaskSet();
  const model::LinearDvsModel cpu = workload::MotivationModel();
  const fps::FullyPreemptiveSchedule fps(set);
  const double acec = set.task(1).acec;
  const double bad_values[] = {std::nan(""), HUGE_VAL, -HUGE_VAL};
  for (const double bad : bad_values) {
    SCOPED_TRACE(bad);
    PlanningPoint point;
    point.cycles = {bad, acec, acec};
    EXPECT_THROW(PlanningPoint::ResolveFor(point.cycles, set, 0),
                 util::InvalidArgumentError);
    EXPECT_THROW(SolvePlanned(fps, cpu, point), util::InvalidArgumentError);

    PlanningPoint mixture;
    mixture.mixture = {{acec, acec, acec}, {acec, bad, acec}};
    EXPECT_THROW(
        {
          const EnergyObjective objective(fps, cpu, Scenario::kAverage,
                                          nullptr, &mixture);
        },
        util::InvalidArgumentError);
    EXPECT_THROW(SolvePlanned(fps, cpu, mixture),
                 util::InvalidArgumentError);
  }
  // Finite out-of-window entries keep their documented clamp.
  const std::vector<double> wide = {1e30, -1e30, acec};
  EXPECT_EQ(PlanningPoint::ResolveFor(wide, set, 0), set.task(0).wcec);
  EXPECT_EQ(PlanningPoint::ResolveFor(wide, set, 1), set.task(1).bcec);
}

TEST(Formulation, RejectsWrongDimension) {
  const model::TaskSet set = workload::MotivationTaskSet();
  const model::LinearDvsModel cpu = workload::MotivationModel();
  const fps::FullyPreemptiveSchedule fps(set);
  const EnergyObjective objective(fps, cpu, Scenario::kAverage);
  EXPECT_THROW(objective.Value({1.0}), util::InvalidArgumentError);
}

}  // namespace
}  // namespace dvs::core
