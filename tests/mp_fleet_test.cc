#include "mp/fleet.h"

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/eval_workspace.h"
#include "core/method_registry.h"
#include "dpm/dpm.h"
#include "obs/metrics.h"
#include "runner/experiment_grid.h"
#include "runner/run_grid.h"
#include "util/error.h"
#include "workload/presets.h"
#include "workload/random_taskset.h"
#include "workload/scenario.h"

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

// --- Per-core mission memo (core::EvalWorkspace::PreparedCell::missions) --

/// Every field of MethodOutcome, compared bit for bit.
void ExpectSameOutcome(const core::MethodOutcome& a,
                       const core::MethodOutcome& b, const std::string& where) {
  EXPECT_EQ(a.predicted_energy, b.predicted_energy) << where;
  EXPECT_EQ(a.measured_energy, b.measured_energy) << where;
  EXPECT_EQ(a.deadline_misses, b.deadline_misses) << where;
  EXPECT_EQ(a.voltage_switches, b.voltage_switches) << where;
  EXPECT_EQ(a.used_fallback, b.used_fallback) << where;
  EXPECT_EQ(a.solver_outer_iterations, b.solver_outer_iterations) << where;
  EXPECT_EQ(a.solver_inner_iterations, b.solver_inner_iterations) << where;
  EXPECT_EQ(a.solver_evaluations, b.solver_evaluations) << where;
  EXPECT_EQ(a.solver_inner_capped, b.solver_inner_capped) << where;
  EXPECT_EQ(a.solver_max_violation, b.solver_max_violation) << where;
  EXPECT_EQ(a.idle_energy, b.idle_energy) << where;
  EXPECT_EQ(a.sleep_energy, b.sleep_energy) << where;
  EXPECT_EQ(a.sleep_time, b.sleep_time) << where;
  EXPECT_EQ(a.sleeps, b.sleeps) << where;
  EXPECT_EQ(a.migrations, b.migrations) << where;
  EXPECT_EQ(a.weighted_cores, b.weighted_cores) << where;
}

/// The counters a fleet evaluation charges from its results, plus the
/// mission memo's traffic.
struct FleetCounters {
  std::int64_t sampler_draws = 0;
  std::int64_t replayed_draws = 0;
  std::int64_t dp_dispatches = 0;
  std::int64_t drift_replans = 0;
  std::int64_t sleeps = 0;
  std::int64_t migrations = 0;
  std::int64_t mission_hits = 0;
  std::int64_t mission_misses = 0;
};

FleetCounters ReadCounters(const obs::MetricsRegistry& metrics) {
  const std::vector<obs::AggregatedMetric> agg = metrics.Aggregate();
  FleetCounters counters;
  counters.sampler_draws = agg[obs::metric::kSamplerDraws].count;
  counters.replayed_draws = agg[obs::metric::kReplayedDraws].count;
  counters.dp_dispatches = agg[obs::metric::kOnlineDpDispatches].count;
  counters.drift_replans = agg[obs::metric::kDriftReplans].count;
  counters.sleeps = agg[obs::metric::kDpmSleeps].count;
  counters.migrations = agg[obs::metric::kDpmMigrations].count;
  counters.mission_hits = agg[obs::metric::kFleetMissionHits].count;
  counters.mission_misses = agg[obs::metric::kFleetMissionMisses].count;
  return counters;
}

void ExpectSameResultCounters(const FleetCounters& a, const FleetCounters& b,
                              const std::string& where) {
  EXPECT_EQ(a.sampler_draws, b.sampler_draws) << where;
  EXPECT_EQ(a.replayed_draws, b.replayed_draws) << where;
  EXPECT_EQ(a.dp_dispatches, b.dp_dispatches) << where;
  EXPECT_EQ(a.drift_replans, b.drift_replans) << where;
  EXPECT_EQ(a.sleeps, b.sleeps) << where;
  EXPECT_EQ(a.migrations, b.migrations) << where;
}

/// A multi-core DPM grid whose axes repeat per-core missions: FFD at 4
/// cores packs these light sets exactly as at 2 (plus gated cores), and
/// the partitioner axis shares the workload seeds.
runner::ExperimentGrid MissionGrid(const model::LinearDvsModel& cpu) {
  workload::RandomTaskSetOptions gen;
  gen.num_tasks = 4;
  gen.bcec_wcec_ratio = 0.3;
  gen.utilization = 1.0;
  gen.max_sub_instances = 24;
  runner::ExperimentGrid grid;
  grid.dvs = &cpu;
  grid.sources = {runner::RandomSource("fleet", gen, 1)};
  grid.core_counts = {2, 4};
  grid.partitioners = {"ffd", "wfd"};
  grid.scenarios = {"iid-normal", "bursty"};
  grid.sigma_divisors = {4.0, 8.0};
  grid.methods = {"acs", "wcs", "acs-online", "acs-online-drift"};
  grid.baseline = "wcs";
  grid.planning.calibration_samples = 64;
  grid.online.drift_threshold = 0.1;
  grid.idle_power = model::IdlePower{0.3};
  grid.dpm.enabled = true;
  grid.dpm.idle = grid.idle_power;
  grid.dpm.sleep = dpm::ResolveSleepState("deep", grid.idle_power);
  grid.dpm.reallocate = true;
  grid.dpm.realloc_after = 2;
  grid.hyper_periods = 4;
  grid.master_seed = 29;
  return grid;
}

// The memo moves time, never results: the grid run through workspaces (so
// repeated missions are served from the prepared cells) is bit-identical,
// cell by cell and counter by counter, to every cell evaluated on its own
// without a workspace, at 1 and 3 threads.
TEST(FleetMissionMemo, GridMatchesTheNoWorkspacePathAtAnyThreadCount) {
  const model::LinearDvsModel cpu = workload::DefaultModel();
  const runner::ExperimentGrid grid = MissionGrid(cpu);
  const core::MethodRegistry& registry = core::MethodRegistry::Builtin();
  std::vector<const core::ScheduleMethod*> methods;
  for (const std::string& name : grid.methods) {
    methods.push_back(&registry.Get(name));
  }
  const std::unique_ptr<const model::DvsModel> floored =
      dpm::FlooredModel(cpu, grid.dpm);
  const model::DvsModel& dvs = floored != nullptr ? *floored : cpu;

  // Reference: every cell alone, options built exactly as runner::RunGrid
  // builds them, no workspace (so no memo and no prepared cells).
  std::vector<std::vector<core::MethodOutcome>> reference;
  FleetCounters reference_counters;
  {
    obs::MetricsRegistry metrics;
    metrics.EnsureShards(1);
    obs::InstallMetrics(&metrics);
    {
      const obs::ScopedMetricsShard scope(&metrics.Shard(0));
      for (std::size_t i = 0; i < grid.CellCount(); ++i) {
        const runner::CellCoord coord = grid.Coord(i);
        core::ExperimentOptions options;
        options.hyper_periods = grid.hyper_periods;
        options.sigma_divisor = grid.sigma_divisors[coord.sigma_index];
        options.seed = grid.Streams(coord).workload_seed;
        options.transition = grid.transition;
        options.scenario =
            &grid.Scenarios().Get(grid.scenarios[coord.scenario_index]);
        options.scenario_key = grid.scenarios[coord.scenario_index];
        options.planning = grid.planning;
        options.online = grid.online;
        options.dpm = grid.dpm;
        const FleetResult fleet = EvaluateFleet(
            grid.MaterializeTaskSet(coord), dvs,
            grid.Partitioners().Get(grid.partitioners[coord.partitioner_index]),
            grid.core_counts[coord.core_index], methods, options,
            grid.idle_power, nullptr);
        std::vector<core::MethodOutcome> outcomes;
        for (const FleetOutcome& outcome : fleet.outcomes) {
          outcomes.push_back(outcome.fleet);
        }
        reference.push_back(std::move(outcomes));
      }
    }
    obs::InstallMetrics(nullptr);
    reference_counters = ReadCounters(metrics);
  }
  EXPECT_EQ(reference_counters.mission_hits, 0);
  EXPECT_EQ(reference_counters.mission_misses, 0);
  EXPECT_GT(reference_counters.dp_dispatches, 0);
  EXPECT_GT(reference_counters.drift_replans, 0);
  EXPECT_GT(reference_counters.sleeps, 0);

  std::int64_t missions = -1;
  for (int threads : {1, 3}) {
    const std::string where = std::to_string(threads) + " threads";
    obs::MetricsRegistry metrics;
    obs::InstallMetrics(&metrics);
    runner::RunOptions options;
    options.threads = threads;
    const runner::GridResult result = runner::RunGrid(grid, options);
    obs::InstallMetrics(nullptr);
    ASSERT_EQ(result.cells.size(), reference.size()) << where;
    EXPECT_EQ(result.failed_cells, 0u) << where;
    for (std::size_t i = 0; i < reference.size(); ++i) {
      ASSERT_EQ(result.cells[i].outcomes.size(), reference[i].size())
          << where << " cell " << i;
      for (std::size_t m = 0; m < reference[i].size(); ++m) {
        ExpectSameOutcome(result.cells[i].outcomes[m], reference[i][m],
                          where + " cell " + std::to_string(i) + " method " +
                              grid.methods[m]);
      }
    }
    const FleetCounters counters = ReadCounters(metrics);
    ExpectSameResultCounters(counters, reference_counters, where);
    if (threads == 1) {
      EXPECT_GT(counters.mission_hits, 0) << where;
    }
    // Which worker's cell holds a mission varies with the thread count;
    // the number of missions looked up does not.
    if (missions < 0) {
      missions = counters.mission_hits + counters.mission_misses;
    }
    EXPECT_EQ(counters.mission_hits + counters.mission_misses, missions)
        << where;
  }
}

/// Options with every field off its default, so each single change below
/// is a real change.
core::ExperimentOptions LoadedOptions() {
  core::ExperimentOptions options;
  options.hyper_periods = 7;
  options.sigma_divisor = 5.0;
  options.seed = 1234;
  options.sigma_chain = {4.0, 5.0};
  options.transition.time_per_volt = 0.01;
  options.transition.energy_per_volt = 0.02;
  options.scenario = &workload::ScenarioRegistry::Builtin().Get("bursty");
  options.scenario_key = "bursty";
  options.planning.mixture_samples = 4;
  options.planning.calibration_samples = 128;
  options.online.dp_bins = 6;
  options.online.drift_ewma = 0.3;
  options.online.drift_threshold = 0.1;
  options.dpm.enabled = true;
  options.dpm.idle.power_per_ms = 0.3;
  options.dpm.sleep = dpm::ResolveSleepState("deep", options.dpm.idle);
  options.dpm.critical_speed = 0.5;
  options.dpm.reallocate = true;
  options.dpm.realloc_after = 3;
  return options;
}

// A mission's identity is every per-core option field and the method list:
// changing any single one of them must miss.
TEST(FleetMissionMemo, AnySingleFieldOrMethodChangeMisses) {
  const core::MethodRegistry& registry = core::MethodRegistry::Builtin();
  const std::vector<const core::ScheduleMethod*> methods = AcsWcs();
  const core::ExperimentOptions base = LoadedOptions();
  const std::string key = core::MissionKey(base, methods);
  EXPECT_EQ(core::MissionKey(LoadedOptions(), AcsWcs()), key);

  using Edit = std::function<void(core::ExperimentOptions&)>;
  const std::vector<std::pair<const char*, Edit>> edits = {
      {"hyper_periods", [](auto& o) { o.hyper_periods += 1; }},
      {"sigma_divisor", [](auto& o) { o.sigma_divisor = 6.0; }},
      {"seed", [](auto& o) { o.seed += 1; }},
      {"sigma_chain", [](auto& o) { o.sigma_chain = {5.0}; }},
      {"transition.time_per_volt",
       [](auto& o) { o.transition.time_per_volt = 0.0; }},
      {"transition.energy_per_volt",
       [](auto& o) { o.transition.energy_per_volt = 0.0; }},
      {"scenario",
       [](auto& o) {
         o.scenario = &workload::ScenarioRegistry::Builtin().Get("heavy-tail");
       }},
      {"scenario_key", [](auto& o) { o.scenario_key = "bursty2"; }},
      {"planning.mixture_samples",
       [](auto& o) { o.planning.mixture_samples = 8; }},
      {"planning.calibration_samples",
       [](auto& o) { o.planning.calibration_samples = 64; }},
      {"online.dp_bins", [](auto& o) { o.online.dp_bins = 8; }},
      {"online.drift_ewma", [](auto& o) { o.online.drift_ewma = 0.2; }},
      {"online.drift_threshold",
       [](auto& o) { o.online.drift_threshold = 0.2; }},
      {"dpm.enabled", [](auto& o) { o.dpm.enabled = false; }},
      {"dpm.idle", [](auto& o) { o.dpm.idle.power_per_ms = 0.4; }},
      {"dpm.sleep.power_per_ms",
       [](auto& o) { o.dpm.sleep.power_per_ms += 0.01; }},
      {"dpm.sleep.enter_latency",
       [](auto& o) { o.dpm.sleep.enter_latency += 0.1; }},
      {"dpm.sleep.exit_latency",
       [](auto& o) { o.dpm.sleep.exit_latency += 0.1; }},
      {"dpm.sleep.enter_energy",
       [](auto& o) { o.dpm.sleep.enter_energy += 0.1; }},
      {"dpm.sleep.exit_energy",
       [](auto& o) { o.dpm.sleep.exit_energy += 0.1; }},
      {"dpm.critical_speed", [](auto& o) { o.dpm.critical_speed = 0.0; }},
      {"dpm.reallocate", [](auto& o) { o.dpm.reallocate = false; }},
      {"dpm.realloc_after", [](auto& o) { o.dpm.realloc_after = 1; }},
  };
  for (const auto& [field, edit] : edits) {
    core::ExperimentOptions changed = base;
    edit(changed);
    EXPECT_NE(core::MissionKey(changed, methods), key) << field;
  }

  const core::ScheduleMethod* acs = &registry.Get("acs");
  const core::ScheduleMethod* wcs = &registry.Get("wcs");
  for (const std::vector<const core::ScheduleMethod*>& other :
       std::vector<std::vector<const core::ScheduleMethod*>>{
           {wcs, acs}, {acs}, {acs, wcs, wcs}, {acs, &registry.Get("wcs-static")}}) {
    EXPECT_NE(core::MissionKey(base, other), key);
  }
}

// End to end: a repeated fleet evaluation on one workspace serves every
// powered core from the memo, and one changed knob runs every core again.
TEST(FleetMissionMemo, RepeatHitsAndAChangedKnobMisses) {
  const model::LinearDvsModel cpu = workload::DefaultModel();
  const model::TaskSet set = FleetSet(cpu, 1.2, 8, 9);
  const Partitioner& wfd = PartitionerRegistry::Builtin().Get("wfd");
  core::EvalWorkspace workspace;
  obs::MetricsRegistry metrics;
  metrics.EnsureShards(1);
  obs::InstallMetrics(&metrics);
  const obs::ScopedMetricsShard scope(&metrics.Shard(0));
  const FleetResult first = EvaluateFleet(set, cpu, wfd, 2, AcsWcs(),
                                          SmallRun(), {}, &workspace);
  const FleetCounters cold = ReadCounters(metrics);
  const FleetResult again = EvaluateFleet(set, cpu, wfd, 2, AcsWcs(),
                                          SmallRun(), {}, &workspace);
  const FleetCounters warm = ReadCounters(metrics);
  core::ExperimentOptions other = SmallRun();
  other.sigma_divisor = 5.0;
  (void)EvaluateFleet(set, cpu, wfd, 2, AcsWcs(), other, {}, &workspace);
  const FleetCounters changed = ReadCounters(metrics);
  obs::InstallMetrics(nullptr);

  const std::int64_t powered = first.partition.used_cores();
  EXPECT_EQ(cold.mission_misses, powered);
  EXPECT_EQ(cold.mission_hits, 0);
  EXPECT_EQ(warm.mission_hits, powered);
  EXPECT_EQ(warm.mission_misses, powered);
  // The hit re-charged exactly the draws the evaluation made.
  EXPECT_EQ(warm.sampler_draws, 2 * cold.sampler_draws);
  EXPECT_EQ(warm.replayed_draws, 2 * cold.replayed_draws);
  EXPECT_EQ(changed.mission_misses, 2 * powered);
  ASSERT_EQ(first.outcomes.size(), again.outcomes.size());
  for (std::size_t m = 0; m < first.outcomes.size(); ++m) {
    ExpectSameOutcome(again.outcomes[m].fleet, first.outcomes[m].fleet,
                      "method " + std::to_string(m));
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
