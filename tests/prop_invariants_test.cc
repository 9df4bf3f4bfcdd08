// Property-based invariant harness: randomized task sets x every registered
// schedule method x every registered execution-time scenario.
//
// Three invariant families, checked on deterministic seeded draws (so a
// violation is an exact regression, not a flaky statistical event):
//
//   (a) safety     — every method's offline schedule passes the independent
//                    VerifyWorstCase audit, and its simulation under every
//                    scenario finishes with zero deadline misses (the
//                    [BCEC, WCEC] clamp keeps the worst-case envelope, so
//                    no stochastic process may create a miss);
//   (b) dominance  — on paired draws (identical task set, scenario and
//                    seed), the partitioned-ACS fleet consumes no more
//                    energy than the partitioned-WCS fleet;
//   (c) bounds     — measured energy sits between the physical floor
//                    (every instance executes at least BCEC cycles, and no
//                    cycle is cheaper than one at Vmin) and the paired
//                    static-vmax ceiling (the same realised cycles all at
//                    Vmax, which convex DVS energy can only beat).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/api.h"
#include "dpm/dpm.h"
#include "dpm/reallocate.h"
#include "fps/expansion.h"
#include "mp/fleet.h"
#include "mp/partitioner.h"
#include "sim/engine.h"
#include "sim/static_schedule.h"
#include "workload/presets.h"
#include "workload/random_taskset.h"
#include "workload/scenario.h"

namespace dvs {
namespace {

/// Small randomized sets keep the per-method NLP solves test-sized while
/// still varying task count, flexibility ratio and the drawn periods.
std::vector<model::TaskSet> PropertySets(const model::DvsModel& dvs) {
  std::vector<model::TaskSet> sets;
  const struct {
    int tasks;
    double ratio;
    std::uint64_t seed;
  } specs[] = {{3, 0.1, 101}, {4, 0.3, 202}, {4, 0.5, 303}};
  for (const auto& spec : specs) {
    workload::RandomTaskSetOptions gen;
    gen.num_tasks = spec.tasks;
    gen.bcec_wcec_ratio = spec.ratio;
    gen.max_sub_instances = 60;
    stats::Rng rng(spec.seed);
    sets.push_back(workload::GenerateRandomTaskSet(gen, dvs, rng));
  }
  return sets;
}

core::ExperimentOptions PropertyOptions() {
  core::ExperimentOptions options;
  options.hyper_periods = 20;
  options.seed = 77;
  // Test-sized calibration for the scenario-conditioned planning arms; the
  // invariants below are exact whatever the sample count.
  options.planning.calibration_samples = 512;
  options.planning.mixture_samples = 4;
  return options;
}

/// Energy floor: every instance executes at least its BCEC cycles, and no
/// cycle costs less than one cycle at Vmin.
double VminBcecFloor(const model::TaskSet& set, const model::DvsModel& dvs) {
  double bcec_cycles = 0.0;
  for (model::TaskIndex i = 0; i < set.size(); ++i) {
    bcec_cycles +=
        static_cast<double>(set.InstanceCount(i)) * set.task(i).bcec;
  }
  return dvs.Energy(dvs.vmin(), bcec_cycles);
}

// (a) + (c): schedule safety and energy bounds, per method x scenario.
TEST(PropInvariants, EveryMethodEveryScenarioSafeAndBounded) {
  const model::LinearDvsModel cpu = workload::DefaultModel();
  const core::MethodRegistry& methods = core::MethodRegistry::Builtin();
  const workload::ScenarioRegistry& scenarios =
      workload::ScenarioRegistry::Builtin();

  const core::ExperimentOptions base = PropertyOptions();
  for (const model::TaskSet& set : PropertySets(cpu)) {
    const fps::FullyPreemptiveSchedule fps(set);
    core::MethodContext context(fps, cpu);
    const double floor = VminBcecFloor(set, cpu);

    for (const std::string& scenario_name : scenarios.Names()) {
      core::ExperimentOptions options = PropertyOptions();
      options.scenario = &scenarios.Get(scenario_name);

      // The paired ceiling: the identical realised cycles, all at Vmax.
      const core::MethodOutcome ceiling =
          EvaluateMethod(methods.Get("static-vmax"), context, options);
      EXPECT_EQ(ceiling.deadline_misses, 0)
          << "static-vmax under " << scenario_name;

      for (const std::string& method_name : methods.Names()) {
        const core::ScheduleMethod& method = methods.Get(method_name);

        // (a) the offline product passes the independent worst-case audit.
        // The scenario-conditioned arms (acs-scenario / acs-mixture /
        // acs-online / acs-online-drift) read the scenario and planning
        // knobs at Plan() time, so the direct Plan() call needs the
        // experiment attached — and their schedules must pass the same
        // audit: planning points are clamped to [BCEC, WCEC], so no
        // calibration can widen the worst-case envelope.
        context.AttachExperiment(options);
        const core::MethodPlan plan = method.Plan(context);
        const sim::FeasibilityReport audit =
            sim::VerifyWorstCase(fps, plan.schedule, cpu);
        ASSERT_TRUE(audit.feasible)
            << method_name << " on " << set.Describe() << ": "
            << audit.detail;

        // (a) zero deadline misses under every stochastic process.
        const core::MethodOutcome outcome =
            EvaluateMethod(method, context, options);
        EXPECT_EQ(outcome.deadline_misses, 0)
            << method_name << " under " << scenario_name;

        // (c) floor <= measured <= paired static-vmax ceiling.
        EXPECT_GE(outcome.measured_energy, floor * (1.0 - 1e-9))
            << method_name << " under " << scenario_name;
        EXPECT_LE(outcome.measured_energy,
                  ceiling.measured_energy * (1.0 + 1e-9))
            << method_name << " under " << scenario_name;
      }
    }
  }
}

// (b): partitioned-ACS never consumes more fleet energy than
// partitioned-WCS on paired draws, for every scenario.
//
// Scope note: unlike (a) and (c) this is not a theorem — a process whose
// realised load sits well above the ACEC plan could legitimately make
// ACS's slow prefix plus catch-up cost more than WCS on some draw.  On
// the pinned PropertySets seeds and the current built-ins (all of whose
// realised means sit at or below the window's ACEC region) the dominance
// holds exactly, so this is a deterministic regression check in the
// spirit of mp_fleet_test.  If you register a heavier-than-ACEC built-in
// and this fires, re-scope the assertion to mean-<=-ACEC scenarios rather
// than weakening the paper's headline inequality for the existing ones.
TEST(PropInvariants, AcsFleetNeverAboveWcsFleetUnderAnyScenario) {
  const model::LinearDvsModel cpu = workload::DefaultModel();
  const core::MethodRegistry& methods = core::MethodRegistry::Builtin();
  const std::vector<const core::ScheduleMethod*> arms = {
      &methods.Get("acs"), &methods.Get("wcs")};
  const mp::Partitioner& ffd =
      mp::PartitionerRegistry::Builtin().Get("ffd");

  for (const model::TaskSet& set : PropertySets(cpu)) {
    for (const std::string& scenario_name :
         workload::ScenarioRegistry::Builtin().Names()) {
      core::ExperimentOptions options = PropertyOptions();
      options.scenario =
          &workload::ScenarioRegistry::Builtin().Get(scenario_name);

      const mp::FleetResult fleet =
          mp::EvaluateFleet(set, cpu, ffd, 2, arms, options);
      const core::MethodOutcome& acs = fleet.outcomes[0].fleet;
      const core::MethodOutcome& wcs = fleet.outcomes[1].fleet;
      EXPECT_LE(acs.measured_energy, wcs.measured_energy)
          << scenario_name << " on " << set.Describe();
      EXPECT_EQ(acs.deadline_misses, 0) << scenario_name;
      EXPECT_EQ(wcs.deadline_misses, 0) << scenario_name;
    }
  }
}

// (b) extended to the scenario-conditioned plan: on paired draws the
// acs-scenario fleet never consumes more energy than the wcs fleet, per
// scenario x core count.  Same scope note as above — not a theorem, but a
// deterministic regression on the pinned seeds: planning at the calibrated
// realised mean is at least as slack-aware as planning at ACEC, and both
// dominate the WCEC plan under every built-in process (whose realised
// means all sit at or below the ACEC region).
TEST(PropInvariants, AcsScenarioFleetNeverAboveWcsFleetPerScenarioAndCores) {
  const model::LinearDvsModel cpu = workload::DefaultModel();
  const core::MethodRegistry& methods = core::MethodRegistry::Builtin();
  const std::vector<const core::ScheduleMethod*> arms = {
      &methods.Get("acs-scenario"), &methods.Get("wcs")};
  const mp::Partitioner& ffd =
      mp::PartitionerRegistry::Builtin().Get("ffd");

  for (const model::TaskSet& set : PropertySets(cpu)) {
    for (const std::string& scenario_name :
         workload::ScenarioRegistry::Builtin().Names()) {
      core::ExperimentOptions options = PropertyOptions();
      options.scenario =
          &workload::ScenarioRegistry::Builtin().Get(scenario_name);

      for (int cores : {1, 2}) {
        const mp::FleetResult fleet =
            mp::EvaluateFleet(set, cpu, ffd, cores, arms, options);
        const core::MethodOutcome& planned = fleet.outcomes[0].fleet;
        const core::MethodOutcome& wcs = fleet.outcomes[1].fleet;
        EXPECT_LE(planned.measured_energy, wcs.measured_energy)
            << scenario_name << " m=" << cores << " on " << set.Describe();
        EXPECT_EQ(planned.deadline_misses, 0)
            << scenario_name << " m=" << cores;
        EXPECT_EQ(wcs.deadline_misses, 0) << scenario_name << " m=" << cores;
      }
    }
  }
}

// (a) + (c) for the online arms at the fleet level: acs-online and
// acs-online-drift keep the worst-case window at every dispatch, so
// partitioned fleets built from them inherit zero deadline misses per
// scenario x core count, and their fleet energy stays inside the physical
// Vmin/BCEC floor and the paired static-vmax ceiling.  (The per-method m=1
// sweep above already audits their offline schedules; this pins the
// multi-core path through mp::EvaluateFleet, including the mid-run drift
// replans.)
TEST(PropInvariants, OnlineArmsFleetSafeAndBoundedPerScenarioAndCores) {
  const model::LinearDvsModel cpu = workload::DefaultModel();
  const core::MethodRegistry& methods = core::MethodRegistry::Builtin();
  const std::vector<std::string> arm_names = {"acs-online",
                                              "acs-online-drift"};
  const std::vector<const core::ScheduleMethod*> arms = {
      &methods.Get("acs-online"), &methods.Get("acs-online-drift"),
      &methods.Get("static-vmax")};
  const mp::Partitioner& ffd =
      mp::PartitionerRegistry::Builtin().Get("ffd");

  for (const model::TaskSet& set : PropertySets(cpu)) {
    // Fleet energy is per-ms normalised (each core's hyper-period energy
    // over its hyper-period length, summed), so the floor is the BCEC/Vmin
    // *power*: partitioning never changes a task's bcec/period rate, so the
    // full-set rate bounds every partition.
    const double floor =
        VminBcecFloor(set, cpu) / static_cast<double>(set.hyper_period());
    for (const std::string& scenario_name :
         workload::ScenarioRegistry::Builtin().Names()) {
      core::ExperimentOptions options = PropertyOptions();
      options.scenario =
          &workload::ScenarioRegistry::Builtin().Get(scenario_name);
      // A twitchy detector makes the drift arm actually replan on these
      // short runs, so the invariants cover the recalibrated plans too.
      options.online.drift_threshold = 0.05;

      for (int cores : {1, 2}) {
        const mp::FleetResult fleet =
            mp::EvaluateFleet(set, cpu, ffd, cores, arms, options);
        const core::MethodOutcome& ceiling = fleet.outcomes[2].fleet;
        for (int arm = 0; arm < 2; ++arm) {
          const core::MethodOutcome& online = fleet.outcomes[arm].fleet;
          const std::string label = arm_names[arm] + " under " +
                                    scenario_name + " m=" +
                                    std::to_string(cores);
          EXPECT_EQ(online.deadline_misses, 0) << label;
          EXPECT_GE(online.measured_energy, floor * (1.0 - 1e-9)) << label;
          EXPECT_LE(online.measured_energy,
                    ceiling.measured_energy * (1.0 + 1e-9))
              << label;
        }
      }
    }
  }
}

// (d) DPM audit 1 — the critical speed really is the per-cycle optimum:
// for randomized leakage floors, no speed in the model's range beats it on
// total (dynamic + floor) energy per cycle, and below it energy rises
// monotonically as speed falls.
TEST(PropInvariants, CriticalSpeedMinimisesPerCycleEnergy) {
  const model::LinearDvsModel cpu = workload::DefaultModel();
  stats::Rng rng(4242);
  for (int draw = 0; draw < 32; ++draw) {
    const double p = rng.Uniform(0.05, 3.0);
    const double star = dpm::CriticalSpeed(cpu, p);
    const auto per_cycle = [&](double s) {
      return cpu.EnergyPerCycle(cpu.VoltageForSpeed(s)) + p / s;
    };
    const double at_star = per_cycle(star);
    double below_prev = at_star;
    for (int i = 1; i <= 16; ++i) {
      const double frac = static_cast<double>(i) / 16.0;
      // Nothing in [MinSpeed, MaxSpeed] beats the critical speed...
      const double s =
          cpu.MinSpeed() + frac * (cpu.MaxSpeed() - cpu.MinSpeed());
      EXPECT_GE(per_cycle(s), at_star - 1e-9) << "p=" << p << " s=" << s;
      // ...and below it, slowing down monotonically costs more.
      const double below = star - frac * (star - cpu.MinSpeed());
      if (below < star - 1e-9) {
        EXPECT_GE(per_cycle(below), below_prev - 1e-12)
            << "p=" << p << " s=" << below;
        below_prev = per_cycle(below);
      }
    }
  }
}

// (e) DPM audit 2 — timed sleeps are deadline-neutral and never lose
// energy: with a non-zero idle floor, DPM-on fleets finish every draw with
// zero misses and no more measured energy than the identical DPM-off run.
TEST(PropInvariants, DpmSleepNeverMissesAndNeverCostsEnergy) {
  const model::LinearDvsModel cpu = workload::DefaultModel();
  const model::IdlePower idle{0.5};
  const std::vector<const core::ScheduleMethod*> arms = {
      &core::MethodRegistry::Builtin().Get("acs"),
      &core::MethodRegistry::Builtin().Get("wcs")};
  for (const model::TaskSet& set : PropertySets(cpu)) {
    for (const std::string& name :
         mp::PartitionerRegistry::Builtin().Names()) {
      const mp::Partitioner& partitioner =
          mp::PartitionerRegistry::Builtin().Get(name);
      core::ExperimentOptions off_options = PropertyOptions();
      const mp::FleetResult off =
          mp::EvaluateFleet(set, cpu, partitioner, 2, arms, off_options,
                            idle);

      core::ExperimentOptions on_options = off_options;
      on_options.dpm.enabled = true;
      on_options.dpm.sleep = dpm::ResolveSleepState("deep", idle);
      on_options.dpm.reallocate = true;
      const mp::FleetResult on =
          mp::EvaluateFleet(set, cpu, partitioner, 2, arms, on_options,
                            idle);

      for (std::size_t m = 0; m < on.outcomes.size(); ++m) {
        const std::string label = name + " method " + std::to_string(m);
        EXPECT_EQ(on.outcomes[m].fleet.deadline_misses, 0) << label;
        EXPECT_LE(on.outcomes[m].fleet.measured_energy,
                  off.outcomes[m].fleet.measured_energy + 1e-9)
            << label;
      }
    }
  }
}

// (f) DPM audit 3 — the master switch is inert bit-for-bit: a disabled but
// fully-populated dpm::Options leaves every fleet figure exactly equal to
// the legacy run's, for every partitioner and property set.
TEST(PropInvariants, DpmOffFleetEnergyBitIdentical) {
  const model::LinearDvsModel cpu = workload::DefaultModel();
  const model::IdlePower idle{0.3};
  const std::vector<const core::ScheduleMethod*> arms = {
      &core::MethodRegistry::Builtin().Get("acs"),
      &core::MethodRegistry::Builtin().Get("wcs")};
  for (const model::TaskSet& set : PropertySets(cpu)) {
    for (const std::string& name :
         mp::PartitionerRegistry::Builtin().Names()) {
      const mp::Partitioner& partitioner =
          mp::PartitionerRegistry::Builtin().Get(name);
      const mp::FleetResult legacy = mp::EvaluateFleet(
          set, cpu, partitioner, 2, arms, PropertyOptions(), idle);

      core::ExperimentOptions disarmed = PropertyOptions();
      disarmed.dpm.sleep = dpm::ResolveSleepState("shallow", idle);
      disarmed.dpm.reallocate = true;
      disarmed.dpm.critical_speed = 0.9;
      const mp::FleetResult off = mp::EvaluateFleet(
          set, cpu, partitioner, 2, arms, disarmed, idle);

      for (std::size_t m = 0; m < legacy.outcomes.size(); ++m) {
        const std::string label = name + " method " + std::to_string(m);
        EXPECT_EQ(off.outcomes[m].fleet.measured_energy,
                  legacy.outcomes[m].fleet.measured_energy)
            << label;
        EXPECT_EQ(off.outcomes[m].fleet.predicted_energy,
                  legacy.outcomes[m].fleet.predicted_energy)
            << label;
        EXPECT_EQ(off.outcomes[m].fleet.sleeps, 0) << label;
        EXPECT_EQ(off.outcomes[m].fleet.migrations, 0) << label;
      }
    }
  }
}

// (g) DPM audit 4 — the reallocator's output is always a valid partition
// whose every powered core still passes the partitioners' exact RM
// admission at Vmax, whatever partition it starts from.
TEST(PropInvariants, ReallocatorPreservesRmAdmission) {
  const model::LinearDvsModel cpu = workload::DefaultModel();
  for (const model::TaskSet& set : PropertySets(cpu)) {
    for (const std::string& name :
         mp::PartitionerRegistry::Builtin().Names()) {
      const mp::Partitioner& partitioner =
          mp::PartitionerRegistry::Builtin().Get(name);
      for (int cores : {2, 3}) {
        const mp::Partition start =
            partitioner.Assign(set, cpu, cores, model::IdlePower{1.0});
        const dpm::ReallocationResult result =
            dpm::Consolidate(start, set, cpu, model::IdlePower{1.0});
        result.partition.Validate(set);
        EXPECT_EQ(result.partition.used_cores(),
                  start.used_cores() - result.emptied_cores);
        for (int c = 0; c < result.partition.cores(); ++c) {
          const auto& tasks =
              result.partition.assignment[static_cast<std::size_t>(c)];
          if (tasks.empty()) {
            continue;
          }
          const model::TaskSet subset = mp::SubTaskSet(set, tasks);
          const fps::FullyPreemptiveSchedule expansion(subset);
          EXPECT_TRUE(sim::IsRmSchedulable(expansion, cpu))
              << name << " m=" << cores << " core " << c;
        }
      }
    }
  }
}

}  // namespace
}  // namespace dvs
