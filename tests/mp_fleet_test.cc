#include "mp/fleet.h"

#include <gtest/gtest.h>

#include "core/method_registry.h"
#include "dpm/dpm.h"
#include "util/error.h"
#include "workload/presets.h"
#include "workload/random_taskset.h"

namespace dvs::mp {
namespace {

model::TaskSet FleetSet(const model::DvsModel& dvs, double utilization,
                        int num_tasks, std::uint64_t seed) {
  workload::RandomTaskSetOptions gen;
  gen.num_tasks = num_tasks;
  gen.bcec_wcec_ratio = 0.3;
  gen.utilization = utilization;
  gen.max_sub_instances = 120;
  stats::Rng rng(seed);
  return workload::GenerateRandomTaskSet(gen, dvs, rng);
}

std::vector<const core::ScheduleMethod*> AcsWcs() {
  const core::MethodRegistry& registry = core::MethodRegistry::Builtin();
  return {&registry.Get("acs"), &registry.Get("wcs")};
}

core::ExperimentOptions SmallRun() {
  core::ExperimentOptions options;
  options.hyper_periods = 10;
  options.seed = 42;
  return options;
}

// The acceptance property: on every grid cell the partitioned-ACS fleet
// consumes no more energy than partitioned-WCS.  Deterministic streams make
// this an exact regression check, not a flaky statistical one.
TEST(EvaluateFleetFn, PartitionedAcsBeatsPartitionedWcs) {
  const model::LinearDvsModel cpu = workload::DefaultModel();
  for (std::uint64_t seed : {5u, 6u, 7u}) {
    const model::TaskSet set = FleetSet(cpu, 1.2, 8, seed);
    for (const std::string& name : PartitionerRegistry::Builtin().Names()) {
      const FleetResult result = EvaluateFleet(
          set, cpu, PartitionerRegistry::Builtin().Get(name), 2, AcsWcs(),
          SmallRun());
      ASSERT_EQ(result.outcomes.size(), 2u);
      const core::MethodOutcome& acs = result.outcomes[0].fleet;
      const core::MethodOutcome& wcs = result.outcomes[1].fleet;
      EXPECT_LE(acs.measured_energy, wcs.measured_energy)
          << name << " seed " << seed;
      EXPECT_GT(result.ImprovementOver(0, 1), 0.0) << name;
      EXPECT_EQ(acs.deadline_misses, 0) << name;
      EXPECT_EQ(wcs.deadline_misses, 0) << name;
      EXPECT_GT(result.sub_instances, 0u);
    }
  }
}

TEST(EvaluateFleetFn, DeterministicAcrossCalls) {
  const model::LinearDvsModel cpu = workload::DefaultModel();
  const model::TaskSet set = FleetSet(cpu, 1.2, 8, 9);
  const Partitioner& wfd = PartitionerRegistry::Builtin().Get("wfd");
  const FleetResult a = EvaluateFleet(set, cpu, wfd, 2, AcsWcs(), SmallRun());
  const FleetResult b = EvaluateFleet(set, cpu, wfd, 2, AcsWcs(), SmallRun());
  ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
  for (std::size_t m = 0; m < a.outcomes.size(); ++m) {
    EXPECT_EQ(a.outcomes[m].fleet.measured_energy,
              b.outcomes[m].fleet.measured_energy);
    EXPECT_EQ(a.outcomes[m].fleet.predicted_energy,
              b.outcomes[m].fleet.predicted_energy);
    ASSERT_EQ(a.outcomes[m].per_core.size(), b.outcomes[m].per_core.size());
  }
  EXPECT_EQ(a.partition.Describe(set), b.partition.Describe(set));
}

TEST(EvaluateFleetFn, IdleFloorChargesPoweredCoresOnly) {
  const model::LinearDvsModel cpu = workload::DefaultModel();
  const model::TaskSet set = FleetSet(cpu, 0.7, 4, 3);
  const Partitioner& ffd = PartitionerRegistry::Builtin().Get("ffd");
  // Single-core demand packed by FFD onto one of four cores: only that core
  // pays the floor.
  const FleetResult cold =
      EvaluateFleet(set, cpu, ffd, 4, AcsWcs(), SmallRun());
  const model::IdlePower idle{0.25};
  const FleetResult warm =
      EvaluateFleet(set, cpu, ffd, 4, AcsWcs(), SmallRun(), idle);
  ASSERT_EQ(cold.partition.used_cores(), warm.partition.used_cores());
  const double expected_floor =
      idle.power_per_ms * static_cast<double>(warm.partition.used_cores());
  for (std::size_t m = 0; m < warm.outcomes.size(); ++m) {
    EXPECT_NEAR(warm.outcomes[m].fleet.measured_energy -
                    cold.outcomes[m].fleet.measured_energy,
                expected_floor, 1e-9);
  }
}

TEST(EvaluateFleetFn, PerCoreOutcomesMatchPoweredCores) {
  const model::LinearDvsModel cpu = workload::DefaultModel();
  const model::TaskSet set = FleetSet(cpu, 1.2, 8, 13);
  const FleetResult result =
      EvaluateFleet(set, cpu, PartitionerRegistry::Builtin().Get("wfd"), 4,
                    AcsWcs(), SmallRun());
  const int powered = result.partition.used_cores();
  ASSERT_GE(powered, 2);
  for (const FleetOutcome& outcome : result.outcomes) {
    EXPECT_EQ(outcome.per_core.size(), static_cast<std::size_t>(powered));
  }
}

// Pin for the idle-floor accounting fix: the always-on floor is a property
// of the *measured* mission, so it lands in measured_energy (and the
// idle_energy breakdown), never in the NLP's predicted energy.
TEST(EvaluateFleetFn, IdleFloorStaysOutOfPredictedEnergy) {
  const model::LinearDvsModel cpu = workload::DefaultModel();
  const model::TaskSet set = FleetSet(cpu, 0.7, 4, 3);
  const Partitioner& ffd = PartitionerRegistry::Builtin().Get("ffd");
  const FleetResult cold =
      EvaluateFleet(set, cpu, ffd, 4, AcsWcs(), SmallRun());
  const model::IdlePower idle{0.25};
  const FleetResult warm =
      EvaluateFleet(set, cpu, ffd, 4, AcsWcs(), SmallRun(), idle);
  const double expected_floor =
      idle.power_per_ms * static_cast<double>(warm.partition.used_cores());
  for (std::size_t m = 0; m < warm.outcomes.size(); ++m) {
    // Predicted is bit-identical with and without the floor...
    EXPECT_EQ(warm.outcomes[m].fleet.predicted_energy,
              cold.outcomes[m].fleet.predicted_energy);
    // ...and the floor shows up as the dedicated idle_energy line item.
    EXPECT_NEAR(warm.outcomes[m].fleet.idle_energy, expected_floor, 1e-12);
    EXPECT_NEAR(warm.outcomes[m].fleet.measured_energy -
                    cold.outcomes[m].fleet.measured_energy,
                expected_floor, 1e-9);
  }
}

// The master switch really is inert: a fully-populated but disabled
// dpm::Options produces bit-identical fleet numbers to the legacy call.
TEST(EvaluateFleetFn, DisabledDpmIsBitIdentical) {
  const model::LinearDvsModel cpu = workload::DefaultModel();
  const model::TaskSet set = FleetSet(cpu, 1.2, 8, 9);
  const Partitioner& wfd = PartitionerRegistry::Builtin().Get("wfd");
  const model::IdlePower idle{0.4};

  core::ExperimentOptions loaded = SmallRun();
  loaded.dpm.enabled = false;
  loaded.dpm.sleep = dpm::ResolveSleepState("deep", idle);
  loaded.dpm.reallocate = true;
  loaded.dpm.realloc_after = 2;

  const FleetResult plain =
      EvaluateFleet(set, cpu, wfd, 2, AcsWcs(), SmallRun(), idle);
  const FleetResult armed =
      EvaluateFleet(set, cpu, wfd, 2, AcsWcs(), loaded, idle);
  ASSERT_EQ(plain.outcomes.size(), armed.outcomes.size());
  for (std::size_t m = 0; m < plain.outcomes.size(); ++m) {
    EXPECT_EQ(plain.outcomes[m].fleet.measured_energy,
              armed.outcomes[m].fleet.measured_energy);
    EXPECT_EQ(plain.outcomes[m].fleet.predicted_energy,
              armed.outcomes[m].fleet.predicted_energy);
    EXPECT_EQ(armed.outcomes[m].fleet.sleeps, 0);
    EXPECT_EQ(armed.outcomes[m].fleet.migrations, 0);
  }
}

// The DPM acceptance property at fleet level: on a lightly-loaded fleet
// with a non-trivial idle floor, sleeping through the gaps (and emptying
// cores across hyper-periods) strictly lowers measured fleet power without
// introducing a single deadline miss.
TEST(EvaluateFleetFn, DpmCutsFleetPowerWithZeroMisses) {
  const model::LinearDvsModel cpu = workload::DefaultModel();
  // Light enough (10% per core after WFD spreads it) that the reallocation
  // energy gate approves emptying a core under a 0.5/ms floor.
  const model::TaskSet set = FleetSet(cpu, 0.2, 6, 17);
  const Partitioner& wfd = PartitionerRegistry::Builtin().Get("wfd");
  const model::IdlePower idle{0.5};

  core::ExperimentOptions base = SmallRun();
  base.hyper_periods = 10;
  const FleetResult off = EvaluateFleet(set, cpu, wfd, 2, AcsWcs(), base, idle);

  core::ExperimentOptions managed = base;
  managed.dpm.enabled = true;
  managed.dpm.sleep = dpm::ResolveSleepState("deep", idle);
  managed.dpm.reallocate = true;
  managed.dpm.realloc_after = 1;
  const FleetResult on =
      EvaluateFleet(set, cpu, wfd, 2, AcsWcs(), managed, idle);

  ASSERT_EQ(off.outcomes.size(), on.outcomes.size());
  for (std::size_t m = 0; m < on.outcomes.size(); ++m) {
    const core::MethodOutcome& before = off.outcomes[m].fleet;
    const core::MethodOutcome& after = on.outcomes[m].fleet;
    EXPECT_LT(after.measured_energy, before.measured_energy) << "method " << m;
    EXPECT_EQ(after.deadline_misses, 0) << "method " << m;
    EXPECT_GT(after.sleeps, 0) << "method " << m;
    EXPECT_GT(after.sleep_time, 0.0) << "method " << m;
    // WFD spreads a one-core-sized load over both cores, so the
    // reallocation pass has a core to empty: the powered-core count becomes
    // time-weighted and drops below the partitioner's.
    EXPECT_GT(after.migrations, 0) << "method " << m;
    EXPECT_LT(after.weighted_cores,
              static_cast<double>(on.partition.used_cores()))
        << "method " << m;
    // The ledger decomposes: floor-while-awake plus sleep residency never
    // exceeds what the bare floor would have cost.
    EXPECT_GT(after.idle_energy, 0.0);
    EXPECT_LE(after.idle_energy + after.sleep_energy,
              idle.power_per_ms * static_cast<double>(
                                      on.partition.used_cores()) +
                  1e-9);
  }
}

TEST(EvaluateFleetFn, RequiresMethods) {
  const model::LinearDvsModel cpu = workload::DefaultModel();
  const model::TaskSet set = FleetSet(cpu, 0.7, 4, 3);
  EXPECT_THROW(
      EvaluateFleet(set, cpu, PartitionerRegistry::Builtin().Get("ffd"), 2,
                    {}, SmallRun()),
      util::InvalidArgumentError);
}

}  // namespace
}  // namespace dvs::mp
