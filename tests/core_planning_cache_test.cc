// Regression harness for the planning-arm cache hazard.
//
// PR 3's PreparedCell cache shares one SolveCache across every cell that
// draws the same task set, which was sound while every
// cached solve was scenario-invariant.  The scenario-conditioned arms break
// that premise: their ACS solve is a function of the calibrated
// PlanningPoint, which varies with the cell's scenario, planning arm and
// knobs.  The cache therefore keys planned solves by the *exact point
// values* (SolveCache::planned) — and this suite pins the guarantee down:
//
//   - evaluating every planning arm under every registered scenario
//     through ONE shared workspace/SolveCache (the RunGrid sharing
//     pattern) is bit-identical to evaluating each combination in a fresh,
//     cache-free context — a wrong cross-reuse would surface as a bit
//     diff;
//   - the shared cache ends up with exactly one planned entry per
//     (scenario, arm) combination — no cross-reuse, no duplicate solves;
//   - the sanity direction of the acceptance criterion: a PlanningPoint
//     pinned to the ACEC values solves bit-identically to the plain ACS
//     arm (identical planning point => byte-identical schedule).
#include <gtest/gtest.h>

#include <iterator>
#include <string>
#include <vector>

#include "core/eval_workspace.h"
#include "core/method_registry.h"
#include "core/pipeline.h"
#include "core/scheduler.h"
#include "fps/expansion.h"
#include "model/power_model.h"
#include "model/task.h"
#include "stats/rng.h"
#include "workload/presets.h"
#include "workload/random_taskset.h"
#include "workload/scenario.h"

namespace dvs {
namespace {

constexpr const char* kPlanningArms[] = {"acs-scenario", "acs-mixture"};

model::TaskSet PlanningSet(const model::DvsModel& dvs) {
  workload::RandomTaskSetOptions gen;
  gen.num_tasks = 4;
  gen.bcec_wcec_ratio = 0.3;
  gen.max_sub_instances = 60;
  stats::Rng rng(4242);
  return workload::GenerateRandomTaskSet(gen, dvs, rng);
}

core::ExperimentOptions PlanningOptionsFor(
    const model::WorkloadScenario& scenario) {
  core::ExperimentOptions options;
  options.hyper_periods = 10;
  options.seed = 99;
  options.scenario = &scenario;
  // Test-sized calibration: enough draws for a stable point, cheap enough
  // to run 6 scenarios x 2 arms twice.
  options.planning.calibration_samples = 256;
  options.planning.mixture_samples = 4;
  return options;
}

/// Exact equality of every MethodOutcome field (measured energy compared
/// bitwise — the point of the suite is detecting solve cross-reuse, which
/// would show up as an FP diff, not an epsilon).
void ExpectSameOutcome(const core::MethodOutcome& a,
                       const core::MethodOutcome& b,
                       const std::string& label) {
  EXPECT_EQ(a.measured_energy, b.measured_energy) << label;
  EXPECT_EQ(a.predicted_energy, b.predicted_energy) << label;
  EXPECT_EQ(a.deadline_misses, b.deadline_misses) << label;
  EXPECT_EQ(a.voltage_switches, b.voltage_switches) << label;
  EXPECT_EQ(a.used_fallback, b.used_fallback) << label;
}

TEST(PlanningCache, SharedCacheBitMatchesFreshPerScenarioAndArm) {
  const model::LinearDvsModel cpu = workload::DefaultModel();
  const model::TaskSet set = PlanningSet(cpu);
  const core::MethodRegistry& methods = core::MethodRegistry::Builtin();
  const workload::ScenarioRegistry& scenarios =
      workload::ScenarioRegistry::Builtin();
  const core::SchedulerOptions scheduler;

  // Phase 1: every (scenario, arm) through ONE workspace and ONE prepared
  // entry — exactly how sibling grid cells sharing a task set share a
  // PreparedCell.  `options` lives only for its loop iteration; that is
  // safe because every evaluation goes through EvaluateMethod, which
  // re-attaches the current options before planning — do not add direct
  // Plan() calls after the loop without attaching live options first.
  core::EvalWorkspace workspace;
  std::vector<core::MethodOutcome> shared;
  std::vector<std::string> labels;
  for (const std::string& scenario_name : scenarios.Names()) {
    const core::ExperimentOptions options =
        PlanningOptionsFor(scenarios.Get(scenario_name));
    core::EvalWorkspace::PreparedCell& prep =
        workspace.Prepare(set, cpu, scheduler);
    core::MethodContext context(prep.fps, cpu, scheduler, workspace,
                                prep.solves);
    for (const char* arm : kPlanningArms) {
      shared.push_back(EvaluateMethod(methods.Get(arm), context, options));
      labels.push_back(scenario_name + " / " + arm);
    }
  }

  // The shared SolveCache must hold exactly one planned solve per
  // (scenario, arm): fewer would mean a cross-combination reuse, more a
  // broken hit condition.
  {
    core::EvalWorkspace::PreparedCell& prep =
        workspace.Prepare(set, cpu, scheduler);
    EXPECT_EQ(prep.solves.planned.size(),
              scenarios.Names().size() * std::size(kPlanningArms));
  }

  // Phase 2: the same combinations, each in a fresh cache-free context.
  std::size_t i = 0;
  for (const std::string& scenario_name : scenarios.Names()) {
    const core::ExperimentOptions options =
        PlanningOptionsFor(scenarios.Get(scenario_name));
    const fps::FullyPreemptiveSchedule fps(set);
    core::MethodContext fresh(fps, cpu, scheduler);
    for (const char* arm : kPlanningArms) {
      const core::MethodOutcome outcome =
          EvaluateMethod(methods.Get(arm), fresh, options);
      ExpectSameOutcome(shared[i], outcome, labels[i]);
      ++i;
    }
  }
}

TEST(PlanningCache, DistinctScenariosProduceDistinctPlannedSolves) {
  // Teeth check for the suite: the planned solves really differ across
  // scenarios (if calibration collapsed to one point, the bit-compare
  // above could never catch a cross-reuse).
  const model::LinearDvsModel cpu = workload::DefaultModel();
  const model::TaskSet set = PlanningSet(cpu);
  const core::MethodRegistry& methods = core::MethodRegistry::Builtin();
  const workload::ScenarioRegistry& scenarios =
      workload::ScenarioRegistry::Builtin();
  const core::SchedulerOptions scheduler;
  const fps::FullyPreemptiveSchedule fps(set);

  core::MethodContext context(fps, cpu, scheduler);
  const core::ExperimentOptions iid =
      PlanningOptionsFor(scenarios.Get("iid-normal"));
  const core::ExperimentOptions heavy =
      PlanningOptionsFor(scenarios.Get("heavy-tail"));
  const core::MethodOutcome a =
      EvaluateMethod(methods.Get("acs-scenario"), context, iid);
  const core::MethodOutcome b =
      EvaluateMethod(methods.Get("acs-scenario"), context, heavy);
  EXPECT_NE(a.predicted_energy, b.predicted_energy);
}

TEST(PlanningCache, AcecPlanningPointBitMatchesPlainAcs) {
  // Identical planning point => byte-identical solve: pin the point to the
  // task ACECs and the planned pipeline must reproduce SolveAcs exactly
  // (same warm start, same objective values, same solver trajectory).
  const model::LinearDvsModel cpu = workload::DefaultModel();
  const model::TaskSet set = PlanningSet(cpu);
  const core::SchedulerOptions scheduler;
  const fps::FullyPreemptiveSchedule fps(set);

  core::PlanningPoint point;
  for (model::TaskIndex i = 0; i < set.size(); ++i) {
    point.cycles.push_back(set.task(i).acec);
  }

  core::MethodContext context(fps, cpu, scheduler);
  const core::ScheduleResult& acs = context.Acs();
  const core::ScheduleResult& planned = context.Planned(point);

  EXPECT_EQ(planned.predicted_energy, acs.predicted_energy);
  EXPECT_EQ(planned.used_fallback, acs.used_fallback);
  ASSERT_EQ(planned.schedule.size(), acs.schedule.size());
  for (std::size_t u = 0; u < acs.schedule.size(); ++u) {
    EXPECT_EQ(planned.schedule.end_time(u), acs.schedule.end_time(u)) << u;
    EXPECT_EQ(planned.schedule.worst_budget(u), acs.schedule.worst_budget(u))
        << u;
  }
}

}  // namespace
}  // namespace dvs
