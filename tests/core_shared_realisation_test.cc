// One workload realisation per context: core::EvaluateMethods draws the
// realisation once (the first non-drift arm records it) and replays it to
// every later arm.  The suite pins the contract down:
//
//   - every built-in arm evaluated together on one shared context is
//     bit-identical to the same arm evaluated alone on a fresh context with
//     its own fresh sampler, under the stateful scenarios whose samplers
//     carry state across draws (bursty, correlated, trace), with a drift
//     arm in the list drawing its own;
//   - the draw counters split the parent's per-arm draws exactly into made
//     and replayed draws;
//   - a replay that asks for a different task than recorded, runs past the
//     record or leaves recorded draws unused throws.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/eval_workspace.h"
#include "core/method_registry.h"
#include "core/pipeline.h"
#include "fps/expansion.h"
#include "model/workload.h"
#include "obs/metrics.h"
#include "sim/engine.h"
#include "sim/policy.h"
#include "stats/rng.h"
#include "util/error.h"
#include "workload/presets.h"
#include "workload/random_taskset.h"
#include "workload/scenario.h"

namespace dvs {
namespace {

// The drift arm sits between non-drift arms: it must neither record nor
// consume the shared realisation.
constexpr const char* kArms[] = {
    "static-vmax", "wcs",          "acs-online-drift", "acs",
    "wcs-static",  "greedy-reclaim", "acs-scenario",   "acs-mixture",
    "acs-online"};
constexpr const char* kStatefulScenarios[] = {"bursty", "correlated",
                                              "trace"};

model::TaskSet SmallSet(const model::DvsModel& dvs) {
  workload::RandomTaskSetOptions gen;
  gen.num_tasks = 3;
  gen.bcec_wcec_ratio = 0.3;
  gen.max_sub_instances = 30;
  stats::Rng rng(777);
  return workload::GenerateRandomTaskSet(gen, dvs, rng);
}

core::ExperimentOptions OptionsFor(const model::WorkloadScenario& scenario) {
  core::ExperimentOptions options;
  options.hyper_periods = 12;
  options.seed = 31;
  options.scenario = &scenario;
  options.planning.calibration_samples = 128;
  options.planning.mixture_samples = 3;
  options.online.drift_threshold = 0.02;  // replan readily
  return options;
}

void ExpectBitEqual(const core::MethodOutcome& a, const core::MethodOutcome& b,
                    const std::string& label) {
  EXPECT_EQ(a.predicted_energy, b.predicted_energy) << label;
  EXPECT_EQ(a.measured_energy, b.measured_energy) << label;
  EXPECT_EQ(a.deadline_misses, b.deadline_misses) << label;
  EXPECT_EQ(a.voltage_switches, b.voltage_switches) << label;
  EXPECT_EQ(a.used_fallback, b.used_fallback) << label;
  EXPECT_EQ(a.solver_outer_iterations, b.solver_outer_iterations) << label;
  EXPECT_EQ(a.solver_inner_iterations, b.solver_inner_iterations) << label;
  EXPECT_EQ(a.solver_evaluations, b.solver_evaluations) << label;
  EXPECT_EQ(a.idle_energy, b.idle_energy) << label;
  EXPECT_EQ(a.sleep_energy, b.sleep_energy) << label;
  EXPECT_EQ(a.sleep_time, b.sleep_time) << label;
  EXPECT_EQ(a.sleeps, b.sleeps) << label;
}

std::int64_t CounterValue(obs::MetricsRegistry& registry, obs::MetricId id) {
  return registry.Aggregate()[id].count;
}

TEST(SharedRealisation, EveryArmBitMatchesItsOwnFreshSampler) {
  const model::LinearDvsModel cpu = workload::DefaultModel();
  const model::TaskSet set = SmallSet(cpu);
  const core::MethodRegistry& registry = core::MethodRegistry::Builtin();
  std::vector<const core::ScheduleMethod*> methods;
  for (const char* arm : kArms) {
    methods.push_back(&registry.Get(arm));
  }
  for (const char* scenario : kStatefulScenarios) {
    const core::ExperimentOptions options =
        OptionsFor(workload::ScenarioRegistry::Builtin().Get(scenario));
    for (const bool dpm : {false, true}) {
      core::ExperimentOptions run = options;
      if (dpm) {
        run.dpm.enabled = true;
        run.dpm.idle.power_per_ms = 0.3;
        run.dpm.sleep.power_per_ms = 0.02;
        run.dpm.sleep.enter_latency = 0.1;
        run.dpm.sleep.exit_latency = 0.1;
      }
      const fps::FullyPreemptiveSchedule fps(set);
      core::EvalWorkspace workspace;
      core::EvalWorkspace::PreparedCell& prep = workspace.Prepare(set, cpu);
      core::MethodContext shared(prep.fps, cpu, workspace, prep.solves);
      const std::vector<core::MethodOutcome> together =
          core::EvaluateMethods(methods, shared, run);
      ASSERT_EQ(together.size(), methods.size());
      for (std::size_t m = 0; m < methods.size(); ++m) {
        core::MethodContext fresh(fps, cpu);
        const core::MethodOutcome alone =
            core::EvaluateMethod(*methods[m], fresh, run);
        ExpectBitEqual(together[m], alone,
                       std::string(scenario) + " dpm=" +
                           std::to_string(dpm) + " / " + kArms[m]);
        EXPECT_EQ(alone.deadline_misses, 0) << kArms[m];
      }
    }
  }
}

TEST(SharedRealisation, CountersSplitDrawsIntoMadeAndReplayed) {
  const model::LinearDvsModel cpu = workload::DefaultModel();
  const model::TaskSet set = SmallSet(cpu);
  const core::MethodRegistry& registry = core::MethodRegistry::Builtin();
  const std::vector<const core::ScheduleMethod*> methods = {
      &registry.Get("static-vmax"), &registry.Get("wcs"),
      &registry.Get("greedy-reclaim")};
  const core::ExperimentOptions options =
      OptionsFor(workload::ScenarioRegistry::Builtin().Get("bursty"));
  const fps::FullyPreemptiveSchedule fps(set);
  const std::int64_t draws_per_run =
      options.hyper_periods * static_cast<std::int64_t>(fps.instance_count());

  obs::MetricsRegistry metrics;
  metrics.EnsureShards(1);
  {
    const obs::ScopedMetricsShard scope(&metrics.Shard(0));
    core::MethodContext context(fps, cpu);
    core::EvaluateMethods(methods, context, options);
  }
  EXPECT_EQ(CounterValue(metrics, obs::metric::kSamplerDraws), draws_per_run);
  EXPECT_EQ(CounterValue(metrics, obs::metric::kReplayedDraws),
            2 * draws_per_run);
}

// A recorded run of `hyper_periods` of the set's Vmax-ASAP schedule.
struct Recorded {
  Recorded(model::TaskSet s, std::int64_t hyper_periods)
      : set(std::move(s)), cpu(workload::DefaultModel()), fps(set),
        schedule(sim::BuildVmaxAsapSchedule(fps, cpu)) {
    const model::TruncatedNormalWorkload sampler(set, 6.0);
    const model::RecordingSampler recorder(sampler, draws);
    stats::Rng rng(5);
    sim::SimOptions options;
    options.hyper_periods = hyper_periods;
    direct = sim::Simulate(fps, schedule, cpu, sim::GreedyReclaimPolicy(cpu),
                           recorder, rng, options);
  }

  sim::SimResult Replay(const model::ReplaySampler& replay,
                        std::int64_t hyper_periods) const {
    stats::Rng rng(5);
    sim::SimOptions options;
    options.hyper_periods = hyper_periods;
    return sim::Simulate(fps, schedule, cpu, sim::VmaxPolicy(cpu), replay,
                         rng, options);
  }

  model::TaskSet set;
  model::LinearDvsModel cpu;
  fps::FullyPreemptiveSchedule fps;
  sim::StaticSchedule schedule;
  std::vector<model::RecordedDraw> draws;
  sim::SimResult direct;
};

model::Task MakeTask(std::string name, std::int64_t period, double wcec) {
  model::Task t;
  t.name = std::move(name);
  t.period = period;
  t.wcec = wcec;
  t.bcec = 0.25 * wcec;
  t.acec = 0.5 * wcec;
  return t;
}

TEST(SharedRealisation, FullReplayReproducesTheRecordedDraws) {
  const Recorded rec(
      model::TaskSet({MakeTask("a", 10, 8.0), MakeTask("b", 20, 12.0)}), 4);
  const model::ReplaySampler replay(rec.draws);
  const sim::SimResult replayed = rec.Replay(replay, 4);
  replay.CheckFullyUsed();
  EXPECT_EQ(replay.used(), rec.draws.size());
  EXPECT_EQ(replayed.sampled_cycles, rec.direct.sampled_cycles);
  EXPECT_EQ(replayed.sampled_counts, rec.direct.sampled_counts);
}

TEST(SharedRealisation, ReplayRejectsADifferentTaskSequence) {
  const Recorded rec(
      model::TaskSet({MakeTask("a", 10, 8.0), MakeTask("b", 20, 12.0)}), 2);
  // Same release count per hyper-period boundary, different task order:
  // the periods are swapped, so the first release asks for another task.
  const Recorded other(
      model::TaskSet({MakeTask("a", 20, 8.0), MakeTask("b", 10, 12.0)}), 2);
  const model::ReplaySampler replay(rec.draws);
  EXPECT_THROW(other.Replay(replay, 2), util::InternalError);
}

TEST(SharedRealisation, ReplayRejectsAPartlyUsedOrExhaustedRecord) {
  const Recorded rec(
      model::TaskSet({MakeTask("a", 10, 8.0), MakeTask("b", 20, 12.0)}), 3);
  {
    const model::ReplaySampler replay(rec.draws);
    rec.Replay(replay, 2);  // a shorter run leaves draws unused
    EXPECT_LT(replay.used(), rec.draws.size());
    EXPECT_THROW(replay.CheckFullyUsed(), util::InternalError);
  }
  {
    const model::ReplaySampler replay(rec.draws);
    EXPECT_THROW(rec.Replay(replay, 4), util::InternalError);  // runs out
  }
}

}  // namespace
}  // namespace dvs
