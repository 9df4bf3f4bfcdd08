// Persistent solve-cache contract (core/solve_store.h).
//
// The entry format round-trips bit-exactly; every rejection class —
// corruption, truncation, foreign schema version, foreign fingerprint —
// degrades to a miss instead of aborting; the writer LOCK is exclusive per
// directory while read-only opens never lock; a grid run that writes its
// solves back and a fresh process that pre-seeds from them stream
// byte-identical CSVs; a DPM-floored grid persists like any other; and the
// workspace's byte-budget LRU evicts into the attached store.
#include "core/solve_store.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/eval_workspace.h"
#include "dpm/dpm.h"
#include "obs/metrics.h"
#include "runner/csv_sink.h"
#include "runner/experiment_grid.h"
#include "runner/run_grid.h"
#include "util/binary_io.h"
#include "util/error.h"
#include "workload/calibrator.h"
#include "workload/presets.h"
#include "workload/random_taskset.h"
#include "workload/scenario.h"

namespace dvs::core {
namespace {

std::string FreshDir(const std::string& stem) {
  return ::testing::TempDir() + stem + "." +
         std::to_string(static_cast<long long>(::getpid()));
}

/// Empties a store directory so repeated test-binary runs stay cold.
void PurgeDir(const std::string& dir) {
  SolveStore store(dir);
  for (std::uint64_t key : store.DiskKeys()) {
    std::remove(store.EntryPath(key).c_str());
  }
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(out.good()) << "cannot write " << path;
  out << bytes;
}

model::TaskSet TwoTaskSet(const std::string& prefix) {
  model::Task a;
  a.name = prefix + "-a";
  a.period = 10;
  a.wcec = 8.0;
  a.acec = 5.0;
  a.bcec = 2.0;
  model::Task b;
  b.name = prefix + "-b";
  b.period = 20;
  b.wcec = 12.0;
  b.acec = 8.0;
  b.bcec = 4.0;
  return model::TaskSet({a, b});
}

/// A set whose prepared footprint (expansion records scale with the
/// sub-instance count) dwarfs TwoTaskSet's — the oversized-entry case of
/// the byte-budget tests.  Low per-task demand keeps it RM-feasible.
model::TaskSet ManyTaskSet(const std::string& prefix, int count) {
  std::vector<model::Task> tasks;
  for (int i = 0; i < count; ++i) {
    model::Task task;
    task.name = prefix + "-" + std::to_string(i);
    task.period = (i % 2 == 0) ? 10 : 20;
    task.wcec = 0.05;
    task.acec = 0.03;
    task.bcec = 0.01;
    tasks.push_back(task);
  }
  return model::TaskSet(tasks);
}

/// A StoredCell with every optional populated: both whole-set solves, the
/// vmax schedule, one planned solve with a chain and a mixture, and one
/// calibration with draws.
StoredCell FullCell(const model::TaskSet& set, const ModelDescriptor& model) {
  StoredCell cell(set);
  cell.model = model;

  StoredScheduleResult wcs;
  wcs.schedule.end_times = {1.25, 3.5, 7.0};
  wcs.schedule.worst_budgets = {8.0, 12.0, 8.0};
  wcs.predicted_energy = 42.5;
  wcs.alm.feasible = true;
  wcs.alm.outer_iterations = 3;
  wcs.alm.total_inner_iterations = 17;
  wcs.alm.evaluations = 88;
  wcs.alm.final_value = 42.5;
  wcs.alm.max_violation = 1e-9;
  wcs.alm.final_penalty = 10.0;
  wcs.alm.multipliers = {0.5, -0.25};
  cell.wcs = wcs;

  StoredScheduleResult acs = wcs;
  acs.predicted_energy = 30.75;
  acs.used_fallback = true;
  cell.acs = acs;

  StoredSchedule vmax;
  vmax.end_times = {1.0, 2.0, 4.0};
  vmax.worst_budgets = {8.0, 12.0, 8.0};
  cell.vmax_asap = vmax;

  StoredPlannedSolve planned;
  planned.planning.cycles = {6.5, 9.25};
  planned.planning.mixture = {{5.0, 8.0}, {6.0, 9.0}};
  PlanningPoint ancestor;
  ancestor.cycles = {5.5, 8.5};
  planned.chain = {ancestor};
  planned.result = wcs;
  cell.planned.push_back(planned);

  StoredCalibration calibration;
  calibration.scenario_key = "heavy-tail";
  calibration.sigma_divisor = 6.0;
  calibration.seed = 99;
  calibration.samples = 4;
  calibration.calibration.samples_per_task = 4;
  calibration.calibration.mean = {5.1, 8.2};
  calibration.calibration.stddev = {0.4, 0.9};
  calibration.calibration.draws = {{5.0, 5.2}, {8.0, 8.4}};
  calibration.calibration.sorted = {{5.0, 5.2}, {8.0, 8.4}};
  cell.calibrations.push_back(calibration);
  return cell;
}

void ExpectResultEq(const StoredScheduleResult& a,
                    const StoredScheduleResult& b) {
  EXPECT_EQ(a.schedule.end_times, b.schedule.end_times);
  EXPECT_EQ(a.schedule.worst_budgets, b.schedule.worst_budgets);
  EXPECT_EQ(ModelDescriptor::BitsOf(a.predicted_energy),
            ModelDescriptor::BitsOf(b.predicted_energy));
  EXPECT_EQ(a.alm.feasible, b.alm.feasible);
  EXPECT_EQ(a.alm.inner_status, b.alm.inner_status);
  EXPECT_EQ(a.alm.outer_iterations, b.alm.outer_iterations);
  EXPECT_EQ(a.alm.total_inner_iterations, b.alm.total_inner_iterations);
  EXPECT_EQ(a.alm.evaluations, b.alm.evaluations);
  EXPECT_EQ(a.alm.multipliers, b.alm.multipliers);
  EXPECT_EQ(a.used_fallback, b.used_fallback);
}

TEST(SolveStoreFormat, SerializeRoundTripIsBitExact) {
  const model::LinearDvsModel cpu = workload::DefaultModel();
  const model::TaskSet set = TwoTaskSet("rt");
  const StoredCell cell = FullCell(set, DescribeModel(cpu));

  const std::string bytes = SerializeStoredCell(cell);
  const StoredCell back = DeserializeStoredCell(bytes);

  ASSERT_EQ(back.set.size(), set.size());
  for (std::size_t i = 0; i < set.size(); ++i) {
    EXPECT_EQ(back.set.task(i).name, set.task(i).name);
    EXPECT_EQ(back.set.task(i).period, set.task(i).period);
    EXPECT_EQ(ModelDescriptor::BitsOf(back.set.task(i).wcec),
              ModelDescriptor::BitsOf(set.task(i).wcec));
    EXPECT_EQ(ModelDescriptor::BitsOf(back.set.task(i).acec),
              ModelDescriptor::BitsOf(set.task(i).acec));
    EXPECT_EQ(ModelDescriptor::BitsOf(back.set.task(i).bcec),
              ModelDescriptor::BitsOf(set.task(i).bcec));
  }
  EXPECT_EQ(back.model, cell.model);
  EXPECT_EQ(back.EntryKey(), cell.EntryKey());
  ASSERT_TRUE(back.wcs.has_value());
  ExpectResultEq(*back.wcs, *cell.wcs);
  ASSERT_TRUE(back.acs.has_value());
  ExpectResultEq(*back.acs, *cell.acs);
  EXPECT_TRUE(back.acs->used_fallback);
  ASSERT_TRUE(back.vmax_asap.has_value());
  EXPECT_EQ(back.vmax_asap->end_times, cell.vmax_asap->end_times);
  ASSERT_EQ(back.planned.size(), 1u);
  EXPECT_EQ(back.planned[0].planning, cell.planned[0].planning);
  EXPECT_EQ(back.planned[0].chain, cell.planned[0].chain);
  ExpectResultEq(back.planned[0].result, cell.planned[0].result);
  ASSERT_EQ(back.calibrations.size(), 1u);
  EXPECT_EQ(back.calibrations[0].scenario_key, "heavy-tail");
  EXPECT_EQ(back.calibrations[0].seed, 99u);
  EXPECT_EQ(back.calibrations[0].calibration.draws,
            cell.calibrations[0].calibration.draws);

  // A second serialization of the restored cell is byte-identical — the
  // canonical form is a fixed point.
  EXPECT_EQ(SerializeStoredCell(back), bytes);
}

// A stored calibration keeps its draws once; reading it back rebuilds the
// sorted survival rows bit for bit as the calibrator built them.
TEST(SolveStoreFormat, CalibrationRoundTripRebuildsTheCalibratorsSortedRows) {
  const model::LinearDvsModel cpu = workload::DefaultModel();
  const model::TaskSet set = TwoTaskSet("cal");
  const workload::ScenarioCalibrator calibrator(
      &workload::ScenarioRegistry::Builtin().Get("heavy-tail"), 6.0,
      workload::CalibratorOptions{64});
  StoredCell cell(set);
  cell.model = DescribeModel(cpu);
  StoredCalibration stored;
  stored.scenario_key = "heavy-tail";
  stored.sigma_divisor = 6.0;
  stored.seed = 7;
  stored.samples = 64;
  stored.calibration = calibrator.Calibrate(set, 7);
  cell.calibrations.push_back(stored);

  const StoredCell back = DeserializeStoredCell(SerializeStoredCell(cell));
  ASSERT_EQ(back.calibrations.size(), 1u);
  const workload::Calibration& fresh = stored.calibration;
  const workload::Calibration& restored = back.calibrations[0].calibration;
  EXPECT_EQ(restored.draws, fresh.draws);
  ASSERT_EQ(restored.sorted.size(), fresh.sorted.size());
  for (std::size_t task = 0; task < fresh.sorted.size(); ++task) {
    ASSERT_EQ(restored.sorted[task].size(), fresh.sorted[task].size());
    EXPECT_FALSE(std::is_sorted(fresh.draws[task].begin(),
                                fresh.draws[task].end()))
        << "task " << task << ": draws already sorted prove nothing";
    for (std::size_t j = 0; j < fresh.sorted[task].size(); ++j) {
      EXPECT_EQ(ModelDescriptor::BitsOf(restored.sorted[task][j]),
                ModelDescriptor::BitsOf(fresh.sorted[task][j]))
          << "task " << task << " rank " << j;
    }
  }
}

TEST(SolveStoreFormat, RejectsEveryCorruptionClass) {
  const model::LinearDvsModel cpu = workload::DefaultModel();
  const StoredCell cell = FullCell(TwoTaskSet("bad"), DescribeModel(cpu));
  const std::string bytes = SerializeStoredCell(cell);

  // Bad magic.
  std::string bad_magic = bytes;
  bad_magic[0] = 'X';
  EXPECT_THROW(DeserializeStoredCell(bad_magic), util::Error);

  // Foreign schema version (byte 4 is the version's low byte; the header
  // is outside the checksum, so this exercises the version check itself).
  std::string bad_version = bytes;
  bad_version[4] = static_cast<char>(bad_version[4] + 1);
  EXPECT_THROW(DeserializeStoredCell(bad_version), util::Error);

  // Payload bit-flip -> checksum mismatch.
  std::string flipped = bytes;
  flipped[bytes.size() / 2] = static_cast<char>(flipped[bytes.size() / 2] ^ 1);
  EXPECT_THROW(DeserializeStoredCell(flipped), util::Error);

  // A model tag other than the linear law's, under a valid checksum.  The
  // tag byte sits just before the descriptor's parameter vector (its
  // length 4, then vmin's bits).
  {
    constexpr std::size_t kHeader = 24;  // magic, version, key, size
    std::string payload = bytes.substr(kHeader, bytes.size() - kHeader - 8);
    util::BinaryWriter params;
    params.VecF64({cpu.vmin()});
    std::string needle = params.bytes();
    needle[0] = 4;  // the stored vector's length
    const std::size_t at = payload.find(needle);
    ASSERT_NE(at, std::string::npos);
    ASSERT_EQ(payload[at - 1], static_cast<char>(ModelDescriptor::kLinearTag));
    payload[at - 1] = 2;
    util::BinaryWriter checksum;
    checksum.U64(util::Fnv1a(payload));
    EXPECT_THROW(DeserializeStoredCell(bytes.substr(0, kHeader) + payload +
                                       checksum.bytes()),
                 util::Error);
  }

  // Truncation.
  EXPECT_THROW(DeserializeStoredCell(bytes.substr(0, bytes.size() - 3)),
               util::Error);
  EXPECT_THROW(DeserializeStoredCell(bytes.substr(0, 10)), util::Error);
  EXPECT_THROW(DeserializeStoredCell(""), util::Error);
}

TEST(SolveStoreDir, LoadRejectsDamagedAndForeignFilesAsMisses) {
  const std::string dir = FreshDir("solve_store_reject");
  PurgeDir(dir);
  const model::LinearDvsModel cpu = workload::DefaultModel();
  const ModelDescriptor model = DescribeModel(cpu);
  const model::TaskSet set_a = TwoTaskSet("a");
  const model::TaskSet set_b = TwoTaskSet("b");

  {
    SolveStore writer(dir);
    writer.Absorb(FullCell(set_a, model));
    EXPECT_EQ(writer.WriteBack(), 1u);
  }

  const std::uint64_t key_a = SolveStoreEntryKey(set_a, model);
  const std::uint64_t key_b = SolveStoreEntryKey(set_b, model);
  ASSERT_NE(key_a, key_b);

  {
    // Clean reload hits.
    SolveStore reader(dir, /*read_only=*/true);
    EXPECT_TRUE(reader.Load(set_a, model).has_value());
    // Absent key is a plain miss.
    EXPECT_FALSE(reader.Load(set_b, model).has_value());
  }

  // Foreign fingerprint: set_a's entry renamed onto set_b's key parses
  // fine but answers the wrong question.
  {
    SolveStore reader(dir, /*read_only=*/true);
    WriteFile(reader.EntryPath(key_b), ReadFile(reader.EntryPath(key_a)));
    EXPECT_FALSE(reader.Load(set_b, model).has_value());
  }

  // Corrupt file on the right key: reject, not abort.
  {
    SolveStore reader(dir, /*read_only=*/true);
    std::string bytes = ReadFile(reader.EntryPath(key_a));
    bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 1);
    WriteFile(reader.EntryPath(key_a), bytes);
    EXPECT_FALSE(reader.Load(set_a, model).has_value());
  }
}

// Entries of the previous schema version (whose layout or solver arithmetic
// differs) must never be served: such a file on the current key is rejected
// like any foreign file, and re-solved.
TEST(SolveStoreDir, RejectsEntriesOfThePreviousSchemaVersion) {
  ASSERT_GE(kSolveStoreSchemaVersion, 2u);
  const std::string dir = FreshDir("solve_store_version");
  PurgeDir(dir);
  const model::LinearDvsModel cpu = workload::DefaultModel();
  const ModelDescriptor model = DescribeModel(cpu);
  const model::TaskSet set = TwoTaskSet("v");
  {
    SolveStore writer(dir);
    writer.Absorb(FullCell(set, model));
    EXPECT_EQ(writer.WriteBack(), 1u);
  }
  SolveStore reader(dir, /*read_only=*/true);
  const std::string path = reader.EntryPath(SolveStoreEntryKey(set, model));
  ASSERT_TRUE(reader.Load(set, model).has_value());
  // The header's version is the little-endian U32 after the 4-byte magic.
  std::string bytes = ReadFile(path);
  const std::uint32_t previous = kSolveStoreSchemaVersion - 1;
  for (int i = 0; i < 4; ++i) {
    bytes[4 + i] = static_cast<char>((previous >> (8 * i)) & 0xFF);
  }
  WriteFile(path, bytes);
  EXPECT_THROW(DeserializeStoredCell(bytes), util::Error);
  EXPECT_FALSE(reader.Load(set, model).has_value());
}

TEST(SolveStoreDir, WriterLockIsExclusivePerDirectory) {
  const std::string dir = FreshDir("solve_store_lock");
  PurgeDir(dir);
  {
    SolveStore writer(dir);
    // Second concurrent writer hard-errors...
    EXPECT_THROW(SolveStore second(dir), util::Error);
    // ...while read-only opens coexist with the writer.
    SolveStore reader(dir, /*read_only=*/true);
    EXPECT_TRUE(reader.read_only());
  }
  // The lock dies with the writer.
  SolveStore next(dir);
}

runner::ExperimentGrid PlanningGrid(const model::DvsModel& dvs) {
  workload::RandomTaskSetOptions gen;
  gen.num_tasks = 3;
  gen.bcec_wcec_ratio = 0.3;
  gen.max_sub_instances = 24;

  runner::ExperimentGrid grid;
  grid.dvs = &dvs;
  grid.sources = {runner::RandomSource("random-3", gen, 1)};
  grid.scenarios = {"iid-normal", "heavy-tail"};
  grid.methods = {"acs", "acs-scenario", "acs-mixture", "wcs"};
  grid.baseline = "acs";
  grid.planning.calibration_samples = 64;
  grid.hyper_periods = 5;
  grid.master_seed = 13;
  return grid;
}

TEST(SolveStoreGrid, WarmBootStreamsByteIdenticalCsv) {
  const std::string dir = FreshDir("solve_store_grid");
  PurgeDir(dir);
  const std::string cold_csv = ::testing::TempDir() + "store_cold.csv";
  const std::string warm_csv = ::testing::TempDir() + "store_warm.csv";
  const model::LinearDvsModel cpu = workload::DefaultModel();
  const runner::ExperimentGrid grid = PlanningGrid(cpu);

  obs::MetricsRegistry metrics;
  obs::InstallMetrics(&metrics);

  const auto run = [&](const std::string& csv_path) {
    std::vector<EvalWorkspace> workspaces;
    SolveStore store(dir);
    runner::CsvSink sink(csv_path, /*scenario_column=*/true,
                         /*solver_stats_columns=*/false);
    runner::RunOptions options;
    options.threads = 1;
    options.sink = &sink;
    options.workspaces = &workspaces;
    options.solve_store = &store;
    const runner::GridResult result = runner::RunGrid(grid, options);
    EXPECT_EQ(result.failed_cells, 0u);
    EXPECT_GT(store.WriteBack(), 0u);
  };

  run(cold_csv);
  std::int64_t cold_hits = 0;
  for (const obs::AggregatedMetric& m : metrics.Aggregate()) {
    if (m.name == "persist.cache_hits") {
      cold_hits = m.count;
    }
  }

  run(warm_csv);
  std::int64_t warm_hits = 0;
  std::int64_t write_backs = 0;
  for (const obs::AggregatedMetric& m : metrics.Aggregate()) {
    if (m.name == "persist.cache_hits") {
      warm_hits = m.count;
    } else if (m.name == "persist.write_backs") {
      write_backs = m.count;
    }
  }
  obs::InstallMetrics(nullptr);

  // The warm boot pre-seeded from disk (a fresh store + fresh workspaces,
  // so the hits can only come from the directory) ...
  EXPECT_GT(warm_hits, cold_hits);
  EXPECT_GT(write_backs, 0);
  // ... and moved no byte in the results.
  const std::string cold = ReadFile(cold_csv);
  EXPECT_FALSE(cold.empty());
  EXPECT_EQ(cold, ReadFile(warm_csv));
}

// The DPM critical-speed floor is an ordinary linear model with vmin
// raised, so a floored multi-core grid sends every WCS solve through the
// exact solver, files its solves under the floored model's content
// identity, and a second run over the same store solves nothing.
TEST(SolveStoreGrid, FlooredDpmGridSolvesExactlyAndWarmBoots) {
  const std::string dir = FreshDir("solve_store_floored");
  PurgeDir(dir);
  const model::LinearDvsModel cpu = workload::DefaultModel();
  workload::RandomTaskSetOptions gen;
  gen.num_tasks = 6;
  gen.bcec_wcec_ratio = 0.3;
  gen.utilization = 0.2;
  gen.max_sub_instances = 120;

  runner::ExperimentGrid grid;
  grid.dvs = &cpu;
  grid.sources = {runner::RandomSource("random-m2", gen, 2)};
  grid.core_counts = {2};
  grid.partitioners = {"ffd", "wfd"};
  grid.methods = {"acs", "wcs"};
  grid.baseline = "wcs";
  grid.hyper_periods = 5;
  grid.master_seed = 29;
  grid.idle_power.power_per_ms = 0.5;
  grid.dpm.enabled = true;
  grid.dpm.sleep = dpm::ResolveSleepState("deep", grid.idle_power);
  grid.dpm.reallocate = true;

  dpm::Options resolved = grid.dpm;
  resolved.idle = grid.idle_power;
  const std::unique_ptr<const model::DvsModel> floored =
      dpm::FlooredModel(cpu, resolved);
  ASSERT_NE(floored, nullptr);

  std::map<std::string, obs::AggregatedMetric> counters;
  const auto count = [&counters](const std::string& name) {
    const auto it = counters.find(name);
    return it == counters.end() ? std::int64_t{0} : it->second.count;
  };
  const auto run = [&] {
    obs::MetricsRegistry metrics;
    obs::InstallMetrics(&metrics);
    std::vector<EvalWorkspace> workspaces;
    SolveStore store(dir);
    runner::RunOptions options;
    options.workspaces = &workspaces;
    options.solve_store = &store;
    runner::GridResult result = runner::RunGrid(grid, options);
    store.WriteBack();
    obs::InstallMetrics(nullptr);
    counters.clear();
    for (obs::AggregatedMetric& m : metrics.Aggregate()) {
      counters[m.name] = std::move(m);
    }
    return result;
  };

  const runner::GridResult cold = run();
  EXPECT_EQ(cold.failed_cells, 0u);
  EXPECT_GT(count("solve.wcs_solves"), 0);
  EXPECT_EQ(count("solve.wcs_gap") + count("solve.wcs_fallbacks"),
            count("solve.wcs_solves"));
  // Every entry is filed under the floored model, none under the base.
  const SolveStore reader(dir, /*read_only=*/true);
  ASSERT_FALSE(reader.DiskKeys().empty());
  for (std::uint64_t key : reader.DiskKeys()) {
    EXPECT_EQ(DeserializeStoredCell(ReadFile(reader.EntryPath(key))).model,
              DescribeModel(*floored));
  }

  const runner::GridResult warm = run();
  EXPECT_EQ(count("persist.cache_misses"), 0);
  EXPECT_GT(count("persist.cache_hits"), 0);
  EXPECT_EQ(count("solve.wcs_solves") + count("solve.acs_solves") +
                count("solve.planned_solves"),
            0);
  ASSERT_EQ(warm.cells.size(), cold.cells.size());
  for (std::size_t i = 0; i < cold.cells.size(); ++i) {
    for (std::size_t m = 0; m < grid.methods.size(); ++m) {
      EXPECT_EQ(warm.cells[i].outcomes[m].measured_energy,
                cold.cells[i].outcomes[m].measured_energy);
    }
  }
}

TEST(SolveStoreEviction, ByteBudgetEvictsLruIntoStore) {
  const std::string dir = FreshDir("solve_store_evict");
  PurgeDir(dir);
  const model::LinearDvsModel cpu = workload::DefaultModel();

  obs::MetricsRegistry metrics;
  obs::InstallMetrics(&metrics);
  metrics.EnsureShards(1);

  {
    obs::ScopedMetricsShard scoped(&metrics.Shard(0));
    SolveStore store(dir);
    EvalWorkspace workspace;
    workspace.set_solve_store(&store);
    // Any entry busts a 1-byte budget, so every *new* Prepare() evicts the
    // previous entry — but never the one it just built.
    workspace.set_prepared_budget_bytes(1);
    for (int i = 0; i < 3; ++i) {
      const model::TaskSet set = TwoTaskSet("evict-" + std::to_string(i));
      EvalWorkspace::PreparedCell& cell = workspace.Prepare(set, cpu);
      EXPECT_GT(EvalWorkspace::ApproxBytes(cell), 1u);
      // The fresh entry survives its own insertion's budget pass.
      EXPECT_TRUE(SameTaskSet(cell.set, set));
    }
    // The two evictees flowed into the store on the way out.
    EXPECT_EQ(store.AbsorbedCount(), 2u);
    // The survivor still hits.
    const model::TaskSet last = TwoTaskSet("evict-2");
    obs::MetricsShard& shard = metrics.Shard(0);
    (void)shard;
    EvalWorkspace::PreparedCell& again = workspace.Prepare(last, cpu);
    EXPECT_TRUE(SameTaskSet(again.set, last));
  }

  std::int64_t evictions = 0;
  double resident_bytes = -1.0;
  for (const obs::AggregatedMetric& m : metrics.Aggregate()) {
    if (m.name == "prepare.evictions") {
      evictions = m.count;
    } else if (m.name == "prepare.resident_bytes") {
      resident_bytes = m.value;
    }
  }
  obs::InstallMetrics(nullptr);
  EXPECT_EQ(evictions, 2);
  EXPECT_GT(resident_bytes, 0.0);
}

// A single entry bigger than the whole byte budget can never be paid for
// by eviction.  The buggy behavior — charge it anyway — flushed every
// smaller resident entry (futile: the budget stayed blown) before the
// while-condition's size floor stopped it.  The fix admits the oversized
// MRU charge-exempt: nothing is evicted, the smaller entries stay hot, and
// prepare.oversized_rejects counts the event.
TEST(SolveStoreEviction, OversizedMruEvictsNothing) {
  const model::LinearDvsModel cpu = workload::DefaultModel();

  obs::MetricsRegistry metrics;
  obs::InstallMetrics(&metrics);
  metrics.EnsureShards(1);
  {
    obs::ScopedMetricsShard scoped(&metrics.Shard(0));
    const model::TaskSet small0 = TwoTaskSet("fit-0");
    const model::TaskSet small1 = TwoTaskSet("fit-1");
    const model::TaskSet big = ManyTaskSet("oversized", 32);

    // Measure the three footprints against an unconstrained budget first.
    std::size_t small_bytes = 0;
    std::size_t big_bytes = 0;
    {
      EvalWorkspace probe;
      small_bytes = EvalWorkspace::ApproxBytes(probe.Prepare(small0, cpu));
      small_bytes += EvalWorkspace::ApproxBytes(probe.Prepare(small1, cpu));
      big_bytes = EvalWorkspace::ApproxBytes(probe.Prepare(big, cpu));
    }
    // Both small entries fit the budget exactly; the big one alone blows it.
    const std::size_t budget = small_bytes;
    ASSERT_GT(big_bytes, budget);

    EvalWorkspace workspace;
    workspace.set_prepared_budget_bytes(budget);
    workspace.Prepare(small0, cpu);
    workspace.Prepare(small1, cpu);
    EvalWorkspace::PreparedCell& cell = workspace.Prepare(big, cpu);
    EXPECT_TRUE(SameTaskSet(cell.set, big));

    // The small entries must still be resident: re-preparing them hits the
    // cache instead of rebuilding (no new misses below).
    EXPECT_TRUE(SameTaskSet(workspace.Prepare(small0, cpu).set, small0));
    EXPECT_TRUE(SameTaskSet(workspace.Prepare(small1, cpu).set, small1));
  }

  std::int64_t evictions = -1;
  std::int64_t misses = -1;
  std::int64_t oversized = -1;
  for (const obs::AggregatedMetric& m : metrics.Aggregate()) {
    if (m.name == "prepare.evictions") {
      evictions = m.count;
    } else if (m.name == "prepare.cache_misses") {
      misses = m.count;
    } else if (m.name == "prepare.oversized_rejects") {
      oversized = m.count;
    }
  }
  obs::InstallMetrics(nullptr);
  EXPECT_EQ(evictions, 0);
  // 3 probe inserts + 3 workspace inserts; the two re-Prepares were hits.
  EXPECT_EQ(misses, 6);
  // Exactly the big insert's budget pass saw an oversized MRU.
  EXPECT_EQ(oversized, 1);
}

}  // namespace
}  // namespace dvs::core
