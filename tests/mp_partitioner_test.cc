#include "mp/partitioner.h"

#include <gtest/gtest.h>

#include "core/method_registry.h"
#include "fps/expansion.h"
#include "mp/partition.h"
#include "sim/engine.h"
#include "sim/static_schedule.h"
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

TEST(PartitionerRegistry, BuiltinsAndUnknownName) {
  const PartitionerRegistry& registry = PartitionerRegistry::Builtin();
  EXPECT_TRUE(registry.Contains("ffd"));
  EXPECT_TRUE(registry.Contains("wfd"));
  EXPECT_TRUE(registry.Contains("energy-greedy"));
  EXPECT_EQ(registry.Names().size(), 3u);
  EXPECT_FALSE(registry.Description("ffd").empty());
  EXPECT_THROW(registry.Get("round-robin"), util::InvalidArgumentError);
}

TEST(PartitionerRegistry, RejectsDuplicatesAndEmptyNames) {
  PartitionerRegistry registry;
  RegisterBuiltinPartitioners(registry);
  EXPECT_THROW(registry.Register("ffd", "again", nullptr),
               util::InvalidArgumentError);
  EXPECT_THROW(registry.Register("", "anonymous", nullptr),
               util::InvalidArgumentError);
}

// The partitioners' core contract: every task placed exactly once and every
// core's subset exactly RM-schedulable at Vmax — checked here with the
// engine's own admission test, and below with the independent
// VerifyWorstCase oracle on the per-core schedules.
TEST(Partitioners, EveryCoreIsRmSchedulable) {
  const model::LinearDvsModel cpu = workload::DefaultModel();
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    const model::TaskSet set = FleetSet(cpu, 2.1, 9, seed);
    for (const std::string& name : PartitionerRegistry::Builtin().Names()) {
      const Partitioner& partitioner =
          PartitionerRegistry::Builtin().Get(name);
      const Partition partition = partitioner.Assign(set, cpu, 4, {});
      partition.Validate(set);
      EXPECT_EQ(partition.cores(), 4) << name;
      for (int c = 0; c < partition.cores(); ++c) {
        const auto& owned = partition.assignment[static_cast<std::size_t>(c)];
        if (owned.empty()) {
          continue;
        }
        EXPECT_LE(partition.CoreUtilization(set, cpu, c), 1.0 + 1e-9)
            << name << " core " << c;
        const model::TaskSet subset = SubTaskSet(set, owned);
        const fps::FullyPreemptiveSchedule expansion(subset);
        EXPECT_TRUE(sim::IsRmSchedulable(expansion, cpu))
            << name << " core " << c << ": " << partition.Describe(set);
      }
    }
  }
}

// Property: the per-core offline schedules (the WCS solve and the ACS solve
// built on each partition's subset) pass the independent worst-case audit.
TEST(Partitioners, PerCoreSchedulesPassVerifyWorstCase) {
  const model::LinearDvsModel cpu = workload::DefaultModel();
  const model::TaskSet set = FleetSet(cpu, 1.4, 6, 7);
  for (const std::string& name : PartitionerRegistry::Builtin().Names()) {
    const Partition partition =
        PartitionerRegistry::Builtin().Get(name).Assign(set, cpu, 2, {});
    for (int c = 0; c < partition.cores(); ++c) {
      const auto& owned = partition.assignment[static_cast<std::size_t>(c)];
      if (owned.empty()) {
        continue;
      }
      const model::TaskSet subset = SubTaskSet(set, owned);
      const fps::FullyPreemptiveSchedule fps(subset);
      core::MethodContext context(fps, cpu);
      const sim::FeasibilityReport wcs =
          sim::VerifyWorstCase(fps, context.Wcs().schedule, cpu);
      EXPECT_TRUE(wcs.feasible) << name << " core " << c << ": " << wcs.detail;
      const sim::FeasibilityReport acs =
          sim::VerifyWorstCase(fps, context.Acs().schedule, cpu);
      EXPECT_TRUE(acs.feasible) << name << " core " << c << ": " << acs.detail;
    }
  }
}

TEST(Partitioners, ThrowWhenDemandExceedsFleet) {
  const model::LinearDvsModel cpu = workload::DefaultModel();
  const model::TaskSet set = FleetSet(cpu, 1.4, 6, 11);
  for (const std::string& name : PartitionerRegistry::Builtin().Names()) {
    EXPECT_THROW(
        PartitionerRegistry::Builtin().Get(name).Assign(set, cpu, 1, {}),
        util::InfeasibleError)
        << name;
  }
}

TEST(Partitioners, WfdBalancesAndFfdPacks) {
  const model::LinearDvsModel cpu = workload::DefaultModel();
  // Four equal tasks, 0.2 utilisation each: FFD packs all four onto core 0;
  // WFD hands each to the emptiest core.
  model::Task t;
  t.name = "t";
  t.period = 10;
  t.wcec = 4.0;
  workload::ApplyBcecRatio(t, 0.5);
  const model::TaskSet set =
      workload::ScaleToUtilization({t, t, t, t}, cpu, 0.8);
  const Partition ffd =
      PartitionerRegistry::Builtin().Get("ffd").Assign(set, cpu, 4, {});
  EXPECT_EQ(ffd.used_cores(), 1);
  const Partition wfd =
      PartitionerRegistry::Builtin().Get("wfd").Assign(set, cpu, 4, {});
  EXPECT_EQ(wfd.used_cores(), 4);
}

TEST(Partitioners, EnergyGreedyWeighsIdleFloorAgainstConvexity) {
  const model::LinearDvsModel cpu = workload::DefaultModel();
  model::Task t;
  t.name = "t";
  t.period = 10;
  t.wcec = 4.0;
  workload::ApplyBcecRatio(t, 0.5);
  const model::TaskSet set =
      workload::ScaleToUtilization({t, t, t, t}, cpu, 0.8);
  const Partitioner& greedy =
      PartitionerRegistry::Builtin().Get("energy-greedy");
  // Convex dynamic energy with no idle floor: spreading wins.
  const Partition spread = greedy.Assign(set, cpu, 4, {});
  EXPECT_EQ(spread.used_cores(), 4);
  // A dominant idle floor makes powering extra cores the expensive move.
  const Partition packed =
      greedy.Assign(set, cpu, 4, model::IdlePower{1e9});
  EXPECT_EQ(packed.used_cores(), 1);
}

TEST(CoreEnergyRateFn, ConvexAndAnchoredAtZero) {
  const model::LinearDvsModel cpu = workload::DefaultModel();
  EXPECT_EQ(CoreEnergyRate(cpu, 0.0), 0.0);
  double previous_rate = 0.0;
  double previous_marginal = 0.0;
  for (double u = 0.2; u <= 1.0 + 1e-9; u += 0.2) {
    const double rate = CoreEnergyRate(cpu, u);
    EXPECT_GT(rate, previous_rate) << "rate must increase at u=" << u;
    const double marginal = rate - previous_rate;
    EXPECT_GE(marginal, previous_marginal - 1e-9)
        << "marginal must not shrink at u=" << u;
    previous_rate = rate;
    previous_marginal = marginal;
  }
}

TEST(SubTaskSetFn, PreservesOrderAndRejectsEmpty) {
  const model::LinearDvsModel cpu = workload::DefaultModel();
  const model::TaskSet set = FleetSet(cpu, 0.7, 4, 3);
  const model::TaskSet subset = SubTaskSet(set, {2, 0});
  ASSERT_EQ(subset.size(), 2u);
  EXPECT_EQ(subset.task(0).name, set.task(0).name);
  EXPECT_EQ(subset.task(1).name, set.task(2).name);
  EXPECT_THROW(SubTaskSet(set, {}), util::InvalidArgumentError);
  EXPECT_THROW(SubTaskSet(set, {99}), util::InvalidArgumentError);
}

}  // namespace
}  // namespace dvs::mp
