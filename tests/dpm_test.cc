#include "dpm/dpm.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>

#include "dpm/reallocate.h"
#include "fps/expansion.h"
#include "mp/partition.h"
#include "sim/engine.h"
#include "util/error.h"
#include "workload/presets.h"
#include "workload/random_taskset.h"

namespace dvs::dpm {
namespace {

// For a linear model (speed = k*V) the per-cycle energy with an always-on
// floor p is ceff*(s/k)^2 + p/s, minimised at s* = (p*k^2 / (2*ceff))^(1/3).
TEST(CriticalSpeedFn, MatchesClosedFormForLinearModel) {
  const model::LinearDvsModel cpu(0.1, 4.0, 1.0, 1.0);
  for (double p : {0.05, 0.2, 0.5, 1.0, 4.0}) {
    const double expected = std::cbrt(p / 2.0);
    EXPECT_NEAR(CriticalSpeed(cpu, p), expected, 1e-6) << "p=" << p;
  }
  // Non-unit k and ceff move the optimum per the closed form.
  const model::LinearDvsModel wide(0.05, 2.0, 0.5, 3.0);
  const double p = 0.3;
  EXPECT_NEAR(CriticalSpeed(wide, p), std::cbrt(p * 9.0 / 1.0), 1e-6);
}

TEST(CriticalSpeedFn, ClampsToSpeedRange) {
  const model::LinearDvsModel cpu = workload::DefaultModel();
  // No leakage: slower is always at least as good, so the floor is vmin.
  EXPECT_DOUBLE_EQ(CriticalSpeed(cpu, 0.0), cpu.MinSpeed());
  EXPECT_DOUBLE_EQ(CriticalSpeed(cpu, -1.0), cpu.MinSpeed());
  // Leakage so large the unclamped optimum exceeds vmax: pin to MaxSpeed.
  EXPECT_NEAR(CriticalSpeed(cpu, 1e6), cpu.MaxSpeed(), 1e-6);
  // In between, the critical speed lies strictly inside the range and is
  // monotone in the floor: more leakage, faster optimum.
  double last = 0.0;
  for (double p : {0.5, 1.0, 2.0, 8.0}) {
    const double s = CriticalSpeed(cpu, p);
    EXPECT_GT(s, cpu.MinSpeed());
    EXPECT_LT(s, cpu.MaxSpeed() + 1e-9);
    EXPECT_GT(s, last) << "p=" << p;
    last = s;
  }
}

// Running a cycle below the critical speed costs more total energy than
// running it at the critical speed — the defining property of the floor.
TEST(CriticalSpeedFn, SlowerThanCriticalIsMoreExpensive) {
  const model::LinearDvsModel cpu(0.1, 4.0, 1.0, 1.0);
  const double p = 0.5;
  const double star = CriticalSpeed(cpu, p);
  const auto per_cycle = [&](double s) {
    return cpu.EnergyPerCycle(cpu.VoltageForSpeed(s)) + p / s;
  };
  for (double s : {0.15, 0.3, 0.5, star * 0.9}) {
    EXPECT_GT(per_cycle(s), per_cycle(star)) << "s=" << s;
  }
}

TEST(CriticalSpeedModelClass, RaisesOnlyTheLowerBound) {
  const model::LinearDvsModel base = workload::DefaultModel();
  Options forced;
  forced.enabled = true;
  forced.critical_speed = 0.5;  // half of MaxSpeed = 2.0 cycles/ms
  const std::unique_ptr<const model::DvsModel> floored =
      FlooredModel(base, forced);
  // The floored model is the base's own type with only vmin raised.
  const auto* linear = dynamic_cast<const model::LinearDvsModel*>(floored.get());
  ASSERT_NE(linear, nullptr);
  EXPECT_DOUBLE_EQ(linear->vmin(), base.VoltageForSpeed(2.0));
  EXPECT_GT(linear->vmin(), base.vmin());
  EXPECT_DOUBLE_EQ(linear->vmax(), base.vmax());
  EXPECT_DOUBLE_EQ(linear->ceff(), base.ceff());
  EXPECT_DOUBLE_EQ(linear->k(), base.k());
  EXPECT_NEAR(linear->MinSpeed(), 2.0, 1e-9);
  EXPECT_DOUBLE_EQ(linear->MaxSpeed(), base.MaxSpeed());
  // ClampVoltage now respects the floor from below.
  EXPECT_DOUBLE_EQ(linear->ClampVoltage(0.6), linear->vmin());
  EXPECT_DOUBLE_EQ(linear->ClampVoltage(2.5), 2.5);

  // A floor at top speed leaves no range: rejected, never clamped.
  Options top = forced;
  top.critical_speed = 1.0;
  EXPECT_THROW(FlooredModel(base, top), util::InvalidArgumentError);

  // The alpha-law model rebuilds as its own type too; any other model
  // cannot carry a floor.
  const model::AlphaDvsModel alpha(0.8, 3.3, 1.0, 0.25, 0.5, 1.6);
  const std::unique_ptr<const model::DvsModel> alpha_floored =
      FlooredModel(alpha, forced);
  const auto* rebuilt =
      dynamic_cast<const model::AlphaDvsModel*>(alpha_floored.get());
  ASSERT_NE(rebuilt, nullptr);
  EXPECT_GT(rebuilt->vmin(), alpha.vmin());
  EXPECT_DOUBLE_EQ(rebuilt->vth(), alpha.vth());
  const model::DiscreteDvsModel discrete(
      std::make_shared<model::LinearDvsModel>(base),
      model::DiscreteDvsModel::EvenLevels(base, 4));
  EXPECT_THROW(FlooredModel(discrete, forced), util::InvalidArgumentError);
}

TEST(FlooredModelFn, NoFloorWhenDisabledOrBelowVmin) {
  const model::LinearDvsModel cpu = workload::DefaultModel();  // vmin 0.5

  Options off;  // enabled defaults to false
  off.idle.power_per_ms = 0.5;
  EXPECT_EQ(FlooredModel(cpu, off), nullptr);

  Options disabled;
  disabled.enabled = true;
  disabled.idle.power_per_ms = 0.5;
  disabled.critical_speed = -1.0;
  EXPECT_EQ(FlooredModel(cpu, disabled), nullptr);

  // Idle floor so small the derived critical speed sits below MinSpeed:
  // the base range already respects it.
  Options weak;
  weak.enabled = true;
  weak.idle.power_per_ms = 0.05;
  EXPECT_EQ(FlooredModel(cpu, weak), nullptr);
}

TEST(FlooredModelFn, DerivedFloorIsTheCriticalSpeed) {
  const model::LinearDvsModel cpu = workload::DefaultModel();
  Options derived;
  derived.enabled = true;
  derived.idle.power_per_ms = 0.5;  // critical speed ~0.63 > MinSpeed 0.5
  const std::unique_ptr<const model::DvsModel> floored =
      FlooredModel(cpu, derived);
  ASSERT_NE(floored, nullptr);
  EXPECT_NEAR(floored->MinSpeed(), std::cbrt(0.25), 1e-6);
  EXPECT_DOUBLE_EQ(floored->MaxSpeed(), cpu.MaxSpeed());
}

TEST(ResolveSleepStateFn, PresetsScaleWithTheIdleFloor) {
  const model::IdlePower idle{0.4};

  const model::SleepState ideal = ResolveSleepState("ideal", idle);
  EXPECT_TRUE(ideal.IsZero());
  EXPECT_DOUBLE_EQ(ideal.BreakEvenTime(idle), 0.0);

  const model::SleepState deep = ResolveSleepState("deep", idle);
  EXPECT_DOUBLE_EQ(deep.power_per_ms, 0.02 * idle.power_per_ms);
  EXPECT_DOUBLE_EQ(deep.TransitionLatency(), 1.0);
  EXPECT_DOUBLE_EQ(deep.TransitionEnergy(), idle.power_per_ms);
  // One floor-ms per transition pair at 2% residency: break-even exactly
  // (E_tr - p_sleep*L) / (p_idle - p_sleep) = 0.98p / 0.98p = 1 ms.
  EXPECT_NEAR(deep.BreakEvenTime(idle), 1.0, 1e-12);
  EXPECT_FALSE(deep.Worthwhile(0.9, idle));
  EXPECT_TRUE(deep.Worthwhile(1.1, idle));

  const model::SleepState shallow = ResolveSleepState("shallow", idle);
  EXPECT_LT(shallow.power_per_ms, idle.power_per_ms);
  EXPECT_LT(shallow.BreakEvenTime(idle), deep.BreakEvenTime(idle));

  // A state that never saves anything: break-even is +infinity.
  model::SleepState useless;
  useless.power_per_ms = idle.power_per_ms;
  EXPECT_TRUE(std::isinf(useless.BreakEvenTime(idle)));
  EXPECT_FALSE(useless.Worthwhile(1e9, idle));
}

TEST(ResolveSleepStateFn, UnknownNameThrowsListingPresets) {
  const model::IdlePower idle{0.1};
  EXPECT_THROW(ResolveSleepState("hibernate", idle),
               util::InvalidArgumentError);
  EXPECT_EQ(SleepStateNames().size(), 3u);
}

model::TaskSet LightSet(const model::DvsModel& dvs, int num_tasks,
                        double utilization, std::uint64_t seed) {
  workload::RandomTaskSetOptions gen;
  gen.num_tasks = num_tasks;
  gen.bcec_wcec_ratio = 0.3;
  gen.utilization = utilization;
  gen.max_sub_instances = 200;
  stats::Rng rng(seed);
  return workload::GenerateRandomTaskSet(gen, dvs, rng);
}

/// Round-robin spread: the worst case for the idle floor and the natural
/// input for the consolidation pass.
mp::Partition SpreadPartition(const model::TaskSet& set, int cores) {
  mp::Partition partition;
  partition.assignment.resize(static_cast<std::size_t>(cores));
  for (model::TaskIndex t = 0; t < set.size(); ++t) {
    partition.assignment[static_cast<std::size_t>(t % cores)].push_back(t);
  }
  return partition;
}

bool ExactlyRmSchedulable(const model::TaskSet& set,
                          const model::DvsModel& dvs,
                          const std::vector<model::TaskIndex>& tasks) {
  const model::TaskSet subset = mp::SubTaskSet(set, tasks);
  const fps::FullyPreemptiveSchedule expansion(subset);
  return sim::IsRmSchedulable(expansion, dvs);
}

TEST(ConsolidateFn, EmptiesCoresWithoutBreakingAdmission) {
  const model::LinearDvsModel cpu = workload::DefaultModel();
  const model::TaskSet set = LightSet(cpu, 8, 0.3, 11);
  const mp::Partition spread = SpreadPartition(set, 4);
  ASSERT_EQ(spread.used_cores(), 4);

  const model::IdlePower idle{0.5};
  const ReallocationResult result = Consolidate(spread, set, cpu, idle);
  result.partition.Validate(set);
  // 30% total utilisation spread over four cores: the floor saving beats
  // the packing penalty, so at least one core must empty.
  EXPECT_GT(result.migrations, 0);
  EXPECT_GT(result.emptied_cores, 0);
  EXPECT_EQ(result.partition.used_cores(),
            spread.used_cores() - result.emptied_cores);
  // Every surviving core still passes the partitioners' exact admission.
  for (int c = 0; c < result.partition.cores(); ++c) {
    const auto& tasks =
        result.partition.assignment[static_cast<std::size_t>(c)];
    if (!tasks.empty()) {
      EXPECT_TRUE(ExactlyRmSchedulable(set, cpu, tasks)) << "core " << c;
      EXPECT_LE(result.partition.CoreUtilization(set, cpu, c), 1.0 + 1e-12);
    }
  }
}

// The energy gate: consolidation only ever commits when the estimated
// floor saving beats the cubic dynamic penalty of packing.
TEST(ConsolidateFn, EnergyGateRefusesCostlyConsolidation) {
  const model::LinearDvsModel cpu = workload::DefaultModel();

  // Moderately loaded cores: feasible to merge at Vmax, but running the
  // merged core fast costs far more than one 0.5/ms floor saves.
  const model::TaskSet heavy = LightSet(cpu, 8, 2.0, 31);
  const mp::Partition spread = SpreadPartition(heavy, 4);
  const ReallocationResult refused =
      Consolidate(spread, heavy, cpu, model::IdlePower{0.5});
  EXPECT_EQ(refused.migrations, 0);
  EXPECT_EQ(refused.partition.assignment, spread.assignment);

  // A zero floor saves nothing, so nothing ever moves however light the
  // load is.
  const model::TaskSet light = LightSet(cpu, 8, 0.3, 11);
  const ReallocationResult zero_floor =
      Consolidate(SpreadPartition(light, 4), light, cpu, model::IdlePower{});
  EXPECT_EQ(zero_floor.migrations, 0);

  // A huge leakage floor justifies what 0.5/ms could not.
  const ReallocationResult big_floor =
      Consolidate(spread, heavy, cpu, model::IdlePower{100.0});
  EXPECT_GT(big_floor.migrations, 0);
}

TEST(ConsolidateFn, DeterministicAndIdempotentAtFixpoint) {
  const model::LinearDvsModel cpu = workload::DefaultModel();
  const model::TaskSet set = LightSet(cpu, 9, 0.4, 23);
  const mp::Partition spread = SpreadPartition(set, 3);
  const model::IdlePower idle{1.0};

  const ReallocationResult a = Consolidate(spread, set, cpu, idle);
  const ReallocationResult b = Consolidate(spread, set, cpu, idle);
  EXPECT_EQ(a.partition.assignment, b.partition.assignment);
  EXPECT_EQ(a.migrations, b.migrations);
  EXPECT_GT(a.migrations, 0);

  // Re-running on the consolidated partition finds nothing left to move.
  const ReallocationResult again = Consolidate(a.partition, set, cpu, idle);
  EXPECT_EQ(again.migrations, 0);
  EXPECT_EQ(again.partition.assignment, a.partition.assignment);
}

TEST(ConsolidateFn, NeverPowersAnEmptyCoreAndHandlesNoOpInputs) {
  const model::LinearDvsModel cpu = workload::DefaultModel();
  const model::TaskSet set = LightSet(cpu, 6, 0.2, 7);
  const model::IdlePower idle{0.5};

  // One core already empty: it must stay empty, and tasks only ever flow
  // onto cores that were powered in the input.
  mp::Partition partition;
  partition.assignment.resize(3);
  for (model::TaskIndex t = 0; t < set.size(); ++t) {
    partition.assignment[t % 2].push_back(t);  // core 2 stays empty
  }
  const ReallocationResult result = Consolidate(partition, set, cpu, idle);
  EXPECT_TRUE(result.partition.assignment[2].empty());

  // Single powered core: nothing to consolidate.
  mp::Partition single;
  single.assignment.resize(2);
  for (model::TaskIndex t = 0; t < set.size(); ++t) {
    single.assignment[0].push_back(t);
  }
  const ReallocationResult noop = Consolidate(single, set, cpu, idle);
  EXPECT_EQ(noop.migrations, 0);
  EXPECT_EQ(noop.partition.assignment, single.assignment);
}

}  // namespace
}  // namespace dvs::dpm
