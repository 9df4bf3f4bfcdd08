// Tests for the discrete-event engine and the DVS policies.
#include "sim/engine.h"

#include <gtest/gtest.h>

#include "dpm/dpm.h"
#include "fps/expansion.h"
#include "model/workload.h"
#include "sim/policy.h"
#include "sim/trace.h"
#include "util/error.h"
#include "util/math.h"
#include "workload/motivation.h"
#include "workload/presets.h"

namespace dvs::sim {
namespace {

model::Task MakeTask(std::string name, std::int64_t period, double wcec,
                     double acec_frac = 0.5) {
  model::Task t;
  t.name = std::move(name);
  t.period = period;
  t.wcec = wcec;
  t.acec = acec_frac * wcec;
  t.bcec = 0.25 * wcec;
  return t;
}

struct Harness {
  explicit Harness(model::TaskSet s)
      : set(std::move(s)), cpu(workload::DefaultModel()), fps(set) {}

  SimResult Run(const StaticSchedule& schedule, const AnyPolicy& policy,
                const model::WorkloadSampler& sampler,
                std::int64_t hyper_periods = 1, bool trace = true) {
    stats::Rng rng(1234);
    SimOptions options;
    options.hyper_periods = hyper_periods;
    options.record_trace = trace;
    return Simulate(fps, schedule, cpu, policy, sampler, rng, options);
  }

  model::TaskSet set;
  model::LinearDvsModel cpu;
  fps::FullyPreemptiveSchedule fps;
};

TEST(Engine, SingleTaskWorstCaseEnergyClosedForm) {
  // One task, WCEC 8 cycles, period 10; Vmax-ASAP schedule ends at
  // 8 * 0.25 = 2.0.  Worst-case run at Vmax: E = ceff * 16 * 8.
  Harness h(model::TaskSet({MakeTask("solo", 10, 8.0)}));
  const StaticSchedule schedule = BuildVmaxAsapSchedule(h.fps, h.cpu);
  EXPECT_DOUBLE_EQ(schedule.end_time(0), 2.0);
  const model::FixedWorkload worst(h.set, model::FixedScenario::kWorst);
  const GreedyReclaimPolicy policy(h.cpu);
  const SimResult result = h.Run(schedule, policy, worst);
  EXPECT_DOUBLE_EQ(result.total_energy, 16.0 * 8.0);
  EXPECT_EQ(result.deadline_misses, 0);
  EXPECT_EQ(result.completed_instances, 1);
  EXPECT_DOUBLE_EQ(result.busy_time, 2.0);
  EXPECT_DOUBLE_EQ(result.idle_time, 0.0);  // nothing left to wait for
}

TEST(Engine, StretchedEndTimeLowersVoltage) {
  // Same task, end-time stretched to the deadline: V = 8 cycles / 10 ms
  // at k=1 -> 0.8 V.  E = 0.64 * 8 = 5.12.
  Harness h(model::TaskSet({MakeTask("solo", 10, 8.0)}));
  const StaticSchedule schedule(h.fps, {10.0}, {8.0});
  const model::FixedWorkload worst(h.set, model::FixedScenario::kWorst);
  const GreedyReclaimPolicy policy(h.cpu);
  const SimResult result = h.Run(schedule, policy, worst);
  EXPECT_NEAR(result.total_energy, 0.64 * 8.0, 1e-9);
  EXPECT_EQ(result.deadline_misses, 0);
  ASSERT_EQ(result.trace.size(), 1u);
  EXPECT_NEAR(result.trace.slices()[0].voltage, 0.8, 1e-12);
  EXPECT_NEAR(result.trace.slices()[0].end, 10.0, 1e-9);
}

TEST(Engine, VminClampFinishesEarly) {
  // Tiny workload in a huge window -> clamp at vmin (0.5 V), finish early.
  Harness h(model::TaskSet({MakeTask("solo", 100, 1.0)}));
  const StaticSchedule schedule(h.fps, {100.0}, {1.0});
  const model::FixedWorkload worst(h.set, model::FixedScenario::kWorst);
  const GreedyReclaimPolicy policy(h.cpu);
  const SimResult result = h.Run(schedule, policy, worst);
  ASSERT_EQ(result.trace.size(), 1u);
  EXPECT_DOUBLE_EQ(result.trace.slices()[0].voltage, 0.5);
  // 1 cycle at speed 0.5 -> 2 ms.
  EXPECT_NEAR(result.trace.slices()[0].end, 2.0, 1e-9);
  EXPECT_NEAR(result.total_energy, 0.25 * 1.0, 1e-12);
}

TEST(Engine, RmPreemptionOrder) {
  // High-priority task (period 5) preempts the low one (period 10) at t=5:
  // hi runs [0, 1.5], lo needs 4 time units at Vmax and so still holds
  // 2 cycles when hi's second instance releases.
  Harness h(model::TaskSet(
      {MakeTask("hi", 5, 6.0, 1.0), MakeTask("lo", 10, 16.0, 1.0)}));
  const StaticSchedule schedule = BuildVmaxAsapSchedule(h.fps, h.cpu);
  const model::FixedWorkload worst(h.set, model::FixedScenario::kWorst);
  const GreedyReclaimPolicy policy(h.cpu);
  const SimResult result = h.Run(schedule, policy, worst);
  EXPECT_EQ(result.deadline_misses, 0);
  // Trace: hi runs first at t=0; lo afterwards; hi's second instance
  // preempts lo's remainder at t=5 (Vmax-ASAP keeps everyone at Vmax).
  const auto& slices = result.trace.slices();
  ASSERT_GE(slices.size(), 3u);
  EXPECT_EQ(slices[0].task, 0u);
  EXPECT_EQ(slices[1].task, 1u);
  bool hi_preempts = false;
  for (std::size_t i = 1; i < slices.size(); ++i) {
    if (slices[i].task == 0 && slices[i - 1].task == 1 &&
        util::AlmostEqual(slices[i].begin, 5.0)) {
      hi_preempts = true;
    }
  }
  EXPECT_TRUE(hi_preempts);
  EXPECT_GE(result.preemptions, 1);
}

TEST(Engine, TraceAuditCleanOnRandomishScenario) {
  Harness h(model::TaskSet({MakeTask("a", 10, 8.0), MakeTask("b", 20, 12.0),
                            MakeTask("c", 40, 16.0)}));
  const StaticSchedule schedule = BuildVmaxAsapSchedule(h.fps, h.cpu);
  const model::TruncatedNormalWorkload sampler(h.set, 6.0);
  const GreedyReclaimPolicy policy(h.cpu);
  const SimResult result = h.Run(schedule, policy, sampler, 5);
  EXPECT_EQ(result.deadline_misses, 0);
  EXPECT_EQ(AuditTrace(result.trace, h.set, h.cpu), "");
  EXPECT_EQ(result.completed_instances, 5 * (4 + 2 + 1));
}

TEST(Engine, EnergyMatchesTraceIntegral) {
  Harness h(model::TaskSet({MakeTask("a", 10, 8.0), MakeTask("b", 20, 12.0)}));
  const StaticSchedule schedule = BuildVmaxAsapSchedule(h.fps, h.cpu);
  const model::TruncatedNormalWorkload sampler(h.set, 6.0);
  const GreedyReclaimPolicy policy(h.cpu);
  const SimResult result = h.Run(schedule, policy, sampler, 3);
  double integral = 0.0;
  for (const ExecutionSlice& s : result.trace.slices()) {
    integral += h.cpu.Energy(s.voltage, s.cycles);
  }
  EXPECT_NEAR(integral, result.total_energy,
              1e-9 * std::max(1.0, result.total_energy));
}

TEST(Engine, DeterministicForFixedSeed) {
  Harness h(model::TaskSet({MakeTask("a", 10, 8.0), MakeTask("b", 25, 20.0)}));
  const StaticSchedule schedule = BuildVmaxAsapSchedule(h.fps, h.cpu);
  const model::TruncatedNormalWorkload sampler(h.set, 6.0);
  const GreedyReclaimPolicy policy(h.cpu);
  const SimResult a = h.Run(schedule, policy, sampler, 4, false);
  const SimResult b = h.Run(schedule, policy, sampler, 4, false);
  EXPECT_DOUBLE_EQ(a.total_energy, b.total_energy);
  EXPECT_EQ(a.dispatches, b.dispatches);
}

TEST(Engine, VmaxPolicyIsTheEnergyCeiling) {
  Harness h(model::TaskSet({MakeTask("a", 10, 8.0), MakeTask("b", 20, 12.0)}));
  const StaticSchedule schedule = BuildVmaxAsapSchedule(h.fps, h.cpu);
  const model::TruncatedNormalWorkload sampler(h.set, 6.0);
  const VmaxPolicy vmax(h.cpu);
  const GreedyReclaimPolicy greedy(h.cpu);
  const SimResult r_vmax = h.Run(schedule, vmax, sampler, 3, false);
  const SimResult r_greedy = h.Run(schedule, greedy, sampler, 3, false);
  EXPECT_GE(r_vmax.total_energy, r_greedy.total_energy);
  EXPECT_EQ(r_vmax.deadline_misses, 0);
}

TEST(Engine, StaticOnlyPolicyReclaimsNothing) {
  // With static-only voltages the energy is insensitive to the actual
  // workload staying below WCEC per-sub... it still shrinks with fewer
  // executed cycles, but voltages never drop below the planned ones, so
  // greedy reclamation is at least as good.
  Harness h(model::TaskSet({MakeTask("a", 10, 8.0), MakeTask("b", 20, 12.0)}));
  const StaticSchedule schedule = BuildVmaxAsapSchedule(h.fps, h.cpu);
  const model::TruncatedNormalWorkload sampler(h.set, 6.0);
  const StaticOnlyPolicy static_only(h.fps, schedule, h.cpu);
  const GreedyReclaimPolicy greedy(h.cpu);
  const SimResult r_static = h.Run(schedule, static_only, sampler, 3, false);
  const SimResult r_greedy = h.Run(schedule, greedy, sampler, 3, false);
  EXPECT_EQ(r_static.deadline_misses, 0);
  EXPECT_GE(r_static.total_energy, r_greedy.total_energy - 1e-9);
}

TEST(Engine, TransitionOverheadChargesEnergyAndTime) {
  Harness h(model::TaskSet({MakeTask("a", 10, 8.0), MakeTask("b", 20, 12.0)}));
  const StaticSchedule schedule = BuildVmaxAsapSchedule(h.fps, h.cpu);
  const model::TruncatedNormalWorkload sampler(h.set, 6.0);
  const GreedyReclaimPolicy policy(h.cpu);

  stats::Rng rng_a(5);
  SimOptions plain;
  plain.hyper_periods = 3;
  const SimResult no_overhead =
      Simulate(h.fps, schedule, h.cpu, policy, sampler, rng_a, plain);

  stats::Rng rng_b(5);
  SimOptions with_overhead = plain;
  with_overhead.transition = model::TransitionOverhead{1e-4, 0.5};
  const SimResult overhead =
      Simulate(h.fps, schedule, h.cpu, policy, sampler, rng_b, with_overhead);

  EXPECT_GT(overhead.transition_energy, 0.0);
  EXPECT_GT(overhead.stall_time, 0.0);
  EXPECT_GT(overhead.total_energy, no_overhead.total_energy);
  EXPECT_EQ(overhead.deadline_misses, 0);  // tiny overhead stays harmless
}

TEST(Engine, CountsVoltageSwitches) {
  Harness h(model::TaskSet({MakeTask("a", 10, 8.0), MakeTask("b", 20, 12.0)}));
  const StaticSchedule schedule = BuildVmaxAsapSchedule(h.fps, h.cpu);
  const model::TruncatedNormalWorkload sampler(h.set, 6.0);
  const GreedyReclaimPolicy policy(h.cpu);
  const SimResult result = h.Run(schedule, policy, sampler, 2, false);
  EXPECT_GT(result.voltage_switches, 0);
}

TEST(Engine, RejectsNonPositiveHyperPeriods) {
  Harness h(model::TaskSet({MakeTask("a", 10, 8.0)}));
  const StaticSchedule schedule = BuildVmaxAsapSchedule(h.fps, h.cpu);
  const model::FixedWorkload sampler(h.set, model::FixedScenario::kWorst);
  const GreedyReclaimPolicy policy(h.cpu);
  stats::Rng rng(1);
  SimOptions options;
  options.hyper_periods = 0;
  EXPECT_THROW(
      Simulate(h.fps, schedule, h.cpu, policy, sampler, rng, options),
      util::InvalidArgumentError);
}

TEST(Engine, BestCaseWorkloadUsesLessEnergyThanWorst) {
  Harness h(model::TaskSet({MakeTask("a", 10, 8.0), MakeTask("b", 20, 12.0)}));
  const StaticSchedule schedule = BuildVmaxAsapSchedule(h.fps, h.cpu);
  const GreedyReclaimPolicy policy(h.cpu);
  const model::FixedWorkload best(h.set, model::FixedScenario::kBest);
  const model::FixedWorkload worst(h.set, model::FixedScenario::kWorst);
  const SimResult r_best = h.Run(schedule, policy, best, 2, false);
  const SimResult r_worst = h.Run(schedule, policy, worst, 2, false);
  EXPECT_LT(r_best.total_energy, r_worst.total_energy);
}

TEST(GreedyPolicy, VoltageFromBudgetAndWindow) {
  const model::LinearDvsModel cpu = workload::DefaultModel();
  const GreedyReclaimPolicy policy(cpu);
  DispatchContext ctx;
  ctx.budget_remaining = 8.0;
  ctx.local_time = 2.0;
  ctx.sub_end_time = 6.0;   // window 4 -> speed 2 -> V = 2
  ctx.sub_release = 0.0;
  const DispatchDecision d = policy.Dispatch(ctx);
  EXPECT_FALSE(d.not_before.has_value());
  EXPECT_NEAR(d.voltage, 2.0, 1e-12);
}

TEST(GreedyPolicy, GatesBeforeSegmentStart) {
  const model::LinearDvsModel cpu = workload::DefaultModel();
  const GreedyReclaimPolicy gated(cpu, /*allow_early_start=*/false);
  const GreedyReclaimPolicy eager(cpu, /*allow_early_start=*/true);
  DispatchContext ctx;
  ctx.budget_remaining = 8.0;
  ctx.local_time = 1.0;
  ctx.sub_release = 3.0;
  ctx.sub_end_time = 7.0;
  const DispatchDecision d_gated = gated.Dispatch(ctx);
  ASSERT_TRUE(d_gated.not_before.has_value());
  EXPECT_DOUBLE_EQ(*d_gated.not_before, 3.0);
  const DispatchDecision d_eager = eager.Dispatch(ctx);
  EXPECT_FALSE(d_eager.not_before.has_value());
  EXPECT_NEAR(d_eager.voltage, 8.0 / 6.0, 1e-12);  // window 6 from t=1
}

TEST(GreedyPolicy, LateDispatchSaturatesAtVmax) {
  const model::LinearDvsModel cpu = workload::DefaultModel();
  const GreedyReclaimPolicy policy(cpu);
  DispatchContext ctx;
  ctx.budget_remaining = 8.0;
  ctx.local_time = 9.0;
  ctx.sub_end_time = 6.0;  // already past: degenerate window
  ctx.sub_release = 0.0;
  EXPECT_DOUBLE_EQ(policy.Dispatch(ctx).voltage, cpu.vmax());
}

// Degenerate dispatch regression: a window of exactly zero (dispatched at
// the scheduled end, e.g. right at a hyper-period wrap) and an exhausted
// worst-case budget with a live instance must both run flat out.  The old
// zero-budget path stretched "0 cycles" through VoltageForWork's
// cycles == 0 guard into vmin — the slowest possible speed at the moment
// the schedule has no slack left.
TEST(GreedyPolicy, ZeroWindowAndZeroBudgetClampToVmax) {
  const model::LinearDvsModel cpu = workload::DefaultModel();
  const GreedyReclaimPolicy policy(cpu);
  DispatchContext ctx;
  ctx.budget_remaining = 8.0;
  ctx.local_time = 6.0;
  ctx.sub_end_time = 6.0;  // window == 0 exactly
  ctx.sub_release = 0.0;
  EXPECT_DOUBLE_EQ(policy.Dispatch(ctx).voltage, cpu.vmax());

  ctx.budget_remaining = 0.0;  // budget gone, instance still has cycles
  ctx.local_time = 2.0;
  ctx.sub_end_time = 6.0;  // positive window
  EXPECT_DOUBLE_EQ(policy.Dispatch(ctx).voltage, cpu.vmax());
}

// Engine-level wrap-boundary companion: a sub-instance whose worst-case
// budget is zero (a degenerate schedule row) still carries real drawn
// cycles.  At vmin (the old zero-budget behavior) 8 cycles need 16 ms
// against a 10 ms period — a guaranteed miss every hyper-period; at vmax
// they finish in 2 ms.  Two hyper-periods cover the wrap.
TEST(Engine, ZeroBudgetSubRunsAtVmaxWithoutMissing) {
  Harness h(model::TaskSet({MakeTask("solo", 10, 8.0)}));
  const StaticSchedule schedule(h.fps, {10.0}, {0.0});
  const model::FixedWorkload worst(h.set, model::FixedScenario::kWorst);
  const GreedyReclaimPolicy policy(h.cpu);
  const SimResult result = h.Run(schedule, policy, worst, /*hyper_periods=*/2);
  EXPECT_EQ(result.deadline_misses, 0);
  EXPECT_EQ(result.completed_instances, 2);
  // Both instances at Vmax: E = ceff * vmax^2 * cycles = 16 * 8 per HP.
  EXPECT_NEAR(result.total_energy, 2.0 * 16.0 * 8.0, 1e-9);
}

// Regression for the transition-stall deadline hazard: the stall advances
// the clock *after* the policy sized the voltage for the pre-stall window,
// so a slice planned to just meet its deadline used to land late by the
// stall.  Two equal-period tasks, stretched ends {10, 20}: "a" runs [0,10]
// at 0.8 V, then "b" needs 16 cycles in [10,20] -> 1.6 V, and the
// 0.8 V switch at time_per_volt=0.1 stalls 0.08 ms.  Pre-fix, b finished
// at 20.08 and missed; the ratchet now raises b's voltage against its own
// stall and the deadline holds.
TEST(Engine, TransitionStallDoesNotPushTightDeadlineLate) {
  Harness h(model::TaskSet(
      {MakeTask("a", 20, 8.0, 1.0), MakeTask("b", 20, 16.0, 1.0)}));
  const StaticSchedule schedule(h.fps, {10.0, 20.0}, {8.0, 16.0});
  const model::FixedWorkload worst(h.set, model::FixedScenario::kWorst);
  const GreedyReclaimPolicy policy(h.cpu);

  stats::Rng rng(1);
  SimOptions options;
  options.hyper_periods = 1;
  options.transition = model::TransitionOverhead{0.01, 0.1};
  const SimResult result =
      Simulate(h.fps, schedule, h.cpu, policy, worst, rng, options);
  EXPECT_EQ(result.deadline_misses, 0);
  EXPECT_GT(result.stall_time, 0.0);
  EXPECT_GE(result.voltage_switches, 1);
  EXPECT_LE(result.makespan, 20.0 + 1e-6);
}

// DPM sleep accounting, closed form.  One task, 1 cycle, period 100: the
// vmin clamp finishes it at t=2, leaving one 98 ms idle interval.  Under a
// 0.5/ms floor the "deep" preset (2% residency, 1 ms round trip, one
// floor-ms per transition pair) commits a single sleep:
//   sleep_energy = 0.5 + 0.01*(98-1) = 1.47
//   idle_energy  = 0.5 * (100 - 98)  = 1.0   (floor paid only while awake)
//   total        = 0.25 (dynamic) + 1.0 + 1.47 = 2.72
// versus 0.25 + 0.5*98 + 1.0 = 50.25 had the floor run through the gap.
TEST(Engine, DpmSleepAccountingClosedForm) {
  Harness h(model::TaskSet({MakeTask("solo", 100, 1.0)}));
  const StaticSchedule schedule(h.fps, {100.0}, {1.0});
  const model::FixedWorkload worst(h.set, model::FixedScenario::kWorst);
  const GreedyReclaimPolicy policy(h.cpu);
  const model::IdlePower idle{0.5};

  stats::Rng rng(1);
  SimOptions options;
  options.hyper_periods = 1;
  options.dpm = true;
  options.idle_power = idle;
  options.sleep = dpm::ResolveSleepState("deep", idle);
  const SimResult deep =
      Simulate(h.fps, schedule, h.cpu, policy, worst, rng, options);
  EXPECT_EQ(deep.deadline_misses, 0);
  EXPECT_EQ(deep.sleeps, 1);
  EXPECT_NEAR(deep.sleep_time, 98.0, 1e-9);
  EXPECT_NEAR(deep.sleep_energy, 1.47, 1e-9);
  EXPECT_NEAR(deep.idle_energy, 1.0, 1e-9);
  EXPECT_NEAR(deep.total_energy, 0.25 + 1.0 + 1.47, 1e-9);

  // The "ideal" preset is the savings bound: zero-cost gating leaves only
  // the awake floor around the gap.
  stats::Rng rng_ideal(1);
  SimOptions ideal_options = options;
  ideal_options.sleep = dpm::ResolveSleepState("ideal", idle);
  const SimResult ideal =
      Simulate(h.fps, schedule, h.cpu, policy, worst, rng_ideal, ideal_options);
  EXPECT_NEAR(ideal.sleep_energy, 0.0, 1e-12);
  EXPECT_NEAR(ideal.total_energy, 0.25 + 1.0, 1e-9);
  EXPECT_LE(ideal.total_energy, deep.total_energy);
}

// Timed sleeps only ever touch the energy ledger: the dispatch sequence,
// busy time and completions are identical with DPM on and off.
TEST(Engine, DpmLeavesTheScheduleUntouched) {
  Harness h(model::TaskSet({MakeTask("a", 10, 8.0), MakeTask("b", 20, 12.0)}));
  const StaticSchedule schedule = BuildVmaxAsapSchedule(h.fps, h.cpu);
  const model::TruncatedNormalWorkload sampler(h.set, 6.0);
  const GreedyReclaimPolicy policy(h.cpu);
  const model::IdlePower idle{0.3};

  stats::Rng rng_off(9);
  SimOptions off;
  off.hyper_periods = 4;
  off.record_trace = true;
  const SimResult plain =
      Simulate(h.fps, schedule, h.cpu, policy, sampler, rng_off, off);

  stats::Rng rng_on(9);
  SimOptions on = off;
  on.dpm = true;
  on.idle_power = idle;
  on.sleep = dpm::ResolveSleepState("deep", idle);
  const SimResult managed =
      Simulate(h.fps, schedule, h.cpu, policy, sampler, rng_on, on);

  EXPECT_EQ(managed.deadline_misses, plain.deadline_misses);
  EXPECT_EQ(managed.completed_instances, plain.completed_instances);
  EXPECT_EQ(managed.voltage_switches, plain.voltage_switches);
  EXPECT_DOUBLE_EQ(managed.busy_time, plain.busy_time);
  EXPECT_DOUBLE_EQ(managed.makespan, plain.makespan);
  ASSERT_EQ(managed.trace.size(), plain.trace.size());
  // The DPM ledger sits strictly on top of the identical dynamic energy.
  EXPECT_NEAR(managed.total_energy,
              plain.total_energy + managed.idle_energy + managed.sleep_energy,
              1e-9);
  EXPECT_LE(managed.sleep_time, managed.idle_time + 1e-9);
}

}  // namespace
}  // namespace dvs::sim
