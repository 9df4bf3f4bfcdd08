// Tests for the ACS/WCS schedulers and the feasibility repair.
#include "core/scheduler.h"

#include <gtest/gtest.h>

#include <functional>
#include <memory>

#include "core/eval_workspace.h"
#include "core/method_registry.h"
#include "core/solve_store.h"
#include "dpm/dpm.h"
#include "fps/expansion.h"
#include "opt/replay_newton.h"
#include "sim/engine.h"
#include "stats/rng.h"
#include "util/error.h"
#include "workload/motivation.h"
#include "workload/presets.h"
#include "workload/random_taskset.h"

namespace dvs::core {
namespace {

TEST(Scheduler, WcsRecoversPaperFigure1) {
  const model::TaskSet set = workload::MotivationTaskSet();
  const model::LinearDvsModel cpu = workload::MotivationModel();
  const fps::FullyPreemptiveSchedule fps(set);
  const ScheduleResult wcs = SolveWcs(fps, cpu);
  EXPECT_FALSE(wcs.used_fallback);
  EXPECT_NEAR(wcs.schedule.end_time(0), 20.0 / 3.0, 0.02);
  EXPECT_NEAR(wcs.schedule.end_time(1), 40.0 / 3.0, 0.02);
  EXPECT_NEAR(wcs.schedule.end_time(2), 20.0, 0.02);
}

TEST(Scheduler, AcsRecoversPaperFigure2) {
  const model::TaskSet set = workload::MotivationTaskSet();
  const model::LinearDvsModel cpu = workload::MotivationModel();
  const fps::FullyPreemptiveSchedule fps(set);
  const ScheduleResult acs = SolveAcs(fps, cpu);
  EXPECT_FALSE(acs.used_fallback);
  EXPECT_NEAR(acs.schedule.end_time(0), 10.0, 0.05);
  EXPECT_NEAR(acs.schedule.end_time(1), 15.0, 0.05);
  EXPECT_NEAR(acs.schedule.end_time(2), 20.0, 0.05);
  // Paper's optimal average energy: 1.2e8.
  EXPECT_NEAR(acs.predicted_energy, 1.2e8, 2e5);
}

TEST(Scheduler, SolutionsAreAlwaysWorstCaseFeasible) {
  const model::LinearDvsModel cpu = workload::DefaultModel();
  for (int seed = 0; seed < 6; ++seed) {
    stats::Rng rng(static_cast<std::uint64_t>(seed) + 100);
    workload::RandomTaskSetOptions gen;
    gen.num_tasks = 3 + seed;
    gen.bcec_wcec_ratio = 0.3;
    const model::TaskSet set = workload::GenerateRandomTaskSet(gen, cpu, rng);
    const fps::FullyPreemptiveSchedule fps(set);
    const ScheduleResult wcs = SolveWcs(fps, cpu);
    const ScheduleResult acs =
        SolveSchedule(fps, cpu, Scenario::kAverage, wcs.schedule);
    const sim::FeasibilityReport wr =
        sim::VerifyWorstCase(fps, wcs.schedule, cpu);
    const sim::FeasibilityReport ar =
        sim::VerifyWorstCase(fps, acs.schedule, cpu);
    EXPECT_TRUE(wr.feasible) << "seed " << seed << ": " << wr.detail;
    EXPECT_TRUE(ar.feasible) << "seed " << seed << ": " << ar.detail;
  }
}

TEST(Scheduler, AcsNeverPredictsWorseThanItsWarmStart) {
  const model::LinearDvsModel cpu = workload::DefaultModel();
  for (int seed = 0; seed < 4; ++seed) {
    stats::Rng rng(static_cast<std::uint64_t>(seed) + 7);
    workload::RandomTaskSetOptions gen;
    gen.num_tasks = 4;
    gen.bcec_wcec_ratio = 0.2;
    const model::TaskSet set = workload::GenerateRandomTaskSet(gen, cpu, rng);
    const fps::FullyPreemptiveSchedule fps(set);
    const ScheduleResult wcs = SolveWcs(fps, cpu);
    const EnergyObjective avg_objective(fps, cpu, Scenario::kAverage);
    const double warm_energy =
        avg_objective.Value(avg_objective.PackSchedule(wcs.schedule));
    const ScheduleResult acs =
        SolveSchedule(fps, cpu, Scenario::kAverage, wcs.schedule);
    EXPECT_LE(acs.predicted_energy, warm_energy * (1.0 + 1e-9))
        << "seed " << seed;
  }
}

TEST(Scheduler, WcsImprovesOnVmaxAsap) {
  const model::LinearDvsModel cpu = workload::DefaultModel();
  stats::Rng rng(11);
  workload::RandomTaskSetOptions gen;
  gen.num_tasks = 5;
  const model::TaskSet set = workload::GenerateRandomTaskSet(gen, cpu, rng);
  const fps::FullyPreemptiveSchedule fps(set);
  const EnergyObjective objective(fps, cpu, Scenario::kWorst);
  const double asap_energy = objective.Value(
      objective.PackSchedule(sim::BuildVmaxAsapSchedule(fps, cpu)));
  const ScheduleResult wcs = SolveWcs(fps, cpu);
  // Stretching away from all-Vmax must reduce worst-case energy a lot.
  EXPECT_LT(wcs.predicted_energy, 0.9 * asap_energy);
}

TEST(Repair, FixesEpsilonChainViolations) {
  const model::TaskSet set = workload::MotivationTaskSet();
  const model::LinearDvsModel cpu = workload::MotivationModel();
  const fps::FullyPreemptiveSchedule fps(set);
  // End-times violating the chain by epsilon and budgets off the simplex
  // by epsilon.
  const std::vector<double> ends{10.0, 15.0 - 1e-8, 20.0};
  const std::vector<double> budgets{20.0e6 + 1e-3, 20.0e6, 20.0e6 - 1e-3};
  const auto repaired = RepairSchedule(fps, cpu, ends, budgets);
  ASSERT_TRUE(repaired.has_value());
  const sim::FeasibilityReport report =
      sim::VerifyWorstCase(fps, *repaired, cpu);
  EXPECT_TRUE(report.feasible) << report.detail;
}

TEST(Repair, LiftsEndTimesOntoTheChain) {
  const model::TaskSet set = workload::MotivationTaskSet();
  const model::LinearDvsModel cpu = workload::MotivationModel();
  const fps::FullyPreemptiveSchedule fps(set);
  // Grossly infeasible end-times (all zero): repair must lift them to the
  // Vmax chain {5, 10, 15}.
  const auto repaired = RepairSchedule(fps, cpu, {0.0, 0.0, 0.0},
                                       {20.0e6, 20.0e6, 20.0e6});
  ASSERT_TRUE(repaired.has_value());
  EXPECT_NEAR(repaired->end_time(0), 5.0, 1e-9);
  EXPECT_NEAR(repaired->end_time(1), 10.0, 1e-9);
  EXPECT_NEAR(repaired->end_time(2), 15.0, 1e-9);
}

TEST(Repair, RedistributesBudgetsThatOverflowSegments) {
  // Two tasks; the low-priority instance is split at t=5.  Stuff its whole
  // budget into the first segment, which cannot hold it at Vmax.
  model::Task hi;
  hi.name = "hi";
  hi.period = 5;
  hi.wcec = 8.0;   // 2 time units at Vmax
  hi.acec = 4.0;
  hi.bcec = 2.0;
  model::Task lo;
  lo.name = "lo";
  lo.period = 10;
  lo.wcec = 16.0;  // 4 time units at Vmax; segment [2,5] only holds 3
  lo.acec = 8.0;
  lo.bcec = 4.0;
  const model::TaskSet set({hi, lo});
  const model::LinearDvsModel cpu = workload::DefaultModel();
  const fps::FullyPreemptiveSchedule fps(set);
  ASSERT_EQ(fps.sub_count(), 4u);  // hi[0], hi[1], lo.0, lo.1

  std::vector<double> ends(4);
  std::vector<double> budgets(4);
  for (std::size_t u = 0; u < 4; ++u) {
    const fps::SubInstance& sub = fps.sub(u);
    if (sub.task == 1) {
      ends[u] = sub.seg_end;
      budgets[u] = sub.k == 0 ? 16.0 : 0.0;  // everything in segment one
    } else {
      // hi instances end mid-segment so lo has room: at 2.0 and 7.0.
      ends[u] = sub.seg_begin + 2.0;
      budgets[u] = 8.0;
    }
  }
  const auto repaired = RepairSchedule(fps, cpu, ends, budgets);
  ASSERT_TRUE(repaired.has_value());
  const sim::FeasibilityReport report =
      sim::VerifyWorstCase(fps, *repaired, cpu);
  EXPECT_TRUE(report.feasible) << report.detail;
  // The overflow moved into lo's second segment.
  double lo_second = 0.0;
  for (std::size_t u = 0; u < 4; ++u) {
    if (fps.sub(u).task == 1 && fps.sub(u).k == 1) {
      lo_second = repaired->worst_budget(u);
    }
  }
  EXPECT_GT(lo_second, 3.9);
}

TEST(Repair, FailsWhenDemandTrulyExceedsCapacity) {
  // An over-utilised frame: three tasks of 32e6 cycles = 8 ms each at Vmax
  // need 24 ms of a 20 ms frame.  (Budgets are simplex-projected to WCEC
  // inside the repair, so infeasibility must come from the task set.)
  std::vector<model::Task> tasks;
  for (int i = 0; i < 3; ++i) {
    model::Task t;
    t.name = "t" + std::to_string(i);
    t.period = 20;
    t.wcec = 32.0e6;
    t.acec = 16.0e6;
    t.bcec = 8.0e6;
    tasks.push_back(t);
  }
  const model::TaskSet set(std::move(tasks));
  const model::LinearDvsModel cpu = workload::MotivationModel();
  const fps::FullyPreemptiveSchedule fps(set);
  const auto repaired = RepairSchedule(fps, cpu, {10.0, 15.0, 20.0},
                                       {32.0e6, 32.0e6, 32.0e6});
  EXPECT_FALSE(repaired.has_value());
}

// Planning is derived for the linear law only: a non-linear model fails at
// core::PlanningModel, with the gate's plain message (no source location),
// from every planning entry point.
TEST(PlanningModel, NonLinearModelsFailAtTheGate) {
  const model::LinearDvsModel cpu = workload::MotivationModel();
  EXPECT_EQ(&PlanningModel(cpu), &cpu);
  const model::DiscreteDvsModel discrete(
      std::make_shared<model::LinearDvsModel>(cpu),
      model::DiscreteDvsModel::EvenLevels(cpu, 4));
  const model::TaskSet set = workload::MotivationTaskSet();
  const fps::FullyPreemptiveSchedule fps(set);
  dpm::Options floor;
  floor.enabled = true;
  floor.critical_speed = 0.5;

  const auto expect_gate = [](const char* entry,
                              const std::function<void()>& plan) {
    try {
      plan();
      ADD_FAILURE() << entry << " planned on a non-linear model";
    } catch (const util::InvalidArgumentError& error) {
      EXPECT_STREQ(error.what(),
                   "planning needs a linear-law model (speed = k*V)")
          << entry;
    }
  };
  expect_gate("SolveWcs", [&] { (void)SolveWcs(fps, discrete); });
  expect_gate("MethodContext::Acs", [&] {
    MethodContext context(fps, discrete);
    (void)context.Acs();
  });
  expect_gate("EvalWorkspace::Prepare", [&] {
    EvalWorkspace workspace;
    (void)workspace.Prepare(set, discrete);
  });
  expect_gate("dpm::FlooredModel",
              [&] { (void)dpm::FlooredModel(discrete, floor); });
}

// The solver configuration is a constant covered by the solve store's
// schema version: stored solves carry no options, so a changed value would
// serve stale entries unless the version moves with it.
TEST(Scheduler, AcsAlmOptionsArePinnedToTheStoreSchemaVersion) {
  const char* const bump =
      "a changed solver setting needs a kSolveStoreSchemaVersion bump "
      "(core/solve_store.h); update this pin together with it";
  ASSERT_EQ(kSolveStoreSchemaVersion, 7u) << bump;
  EXPECT_EQ(opt::kReplayKktTol, 1e-9) << bump;
  EXPECT_EQ(opt::kReplayMaxNewton, 1500u) << bump;
  const opt::AlmOptions alm = AcsAlmOptions();
  EXPECT_EQ(alm.max_outer, 14u) << bump;
  EXPECT_EQ(alm.feasibility_tol, 1e-8) << bump;
  EXPECT_EQ(alm.initial_penalty, 10.0) << bump;
  EXPECT_EQ(alm.penalty_growth, 10.0) << bump;
  EXPECT_EQ(alm.max_penalty, 1e12) << bump;
  EXPECT_EQ(alm.violation_shrink, 0.25) << bump;
  EXPECT_EQ(alm.inner_tol_start, 1e-4) << bump;
  EXPECT_EQ(alm.dual_seed, nullptr);
  EXPECT_EQ(alm.dual_penalty_seed, 0.0);
  EXPECT_EQ(alm.observer, nullptr);

  const opt::SpgOptions& spg = alm.inner;
  EXPECT_EQ(spg.max_iterations, 700u) << bump;
  EXPECT_EQ(spg.tolerance, 1e-7) << bump;
  EXPECT_EQ(spg.history, 10u) << bump;
  EXPECT_EQ(spg.armijo_c, 1e-4) << bump;
  EXPECT_EQ(spg.step_min, 1e-12) << bump;
  EXPECT_EQ(spg.step_max, 1e12) << bump;
  EXPECT_EQ(spg.backtrack, 0.5) << bump;
  EXPECT_EQ(spg.max_backtracks, 60u) << bump;
  EXPECT_EQ(spg.observer, nullptr);
}

}  // namespace
}  // namespace dvs::core
