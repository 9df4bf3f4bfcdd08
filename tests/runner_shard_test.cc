// Sharded-run contract: splitting a grid across shards and merging the
// shard CSVs must reproduce the unsharded serial run byte-for-byte.
//
// The end-to-end test runs the golden smoke grid unsharded (serial) and as
// two shards (each on two worker threads — the merge's cell-index sort is
// what restores serial row order, so multi-threaded shards are the honest
// exercise), then byte-compares the merged text against the unsharded
// file.  A second end-to-end run pins the same contract for the planning
// arms with neighbor warm starts and the solver-stats columns on — the
// chain and the counters are defined by grid coordinates alone, so
// sharding cannot move a byte.  Synthetic ShardCsv inputs cover the merge
// error taxonomy (header drift, overlapping shards, coverage gaps).
#include "runner/shard.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/manifest.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "core/solve_store.h"
#include "runner/csv_sink.h"
#include "runner/experiment_grid.h"
#include "runner/golden_grids.h"
#include "runner/run_grid.h"
#include "util/error.h"
#include "util/json.h"
#include "workload/presets.h"
#include "workload/random_taskset.h"

namespace dvs::runner {
namespace {

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::string FreshPath(const std::string& stem) {
  return ::testing::TempDir() + stem + "." +
         std::to_string(static_cast<long long>(::getpid())) + ".csv";
}

/// A slim planning grid with a 2-point sigma axis: neighbor warm starts
/// actually chain, and the solver-stats columns carry per-link counters.
ExperimentGrid WarmPlanningGrid(const model::DvsModel& dvs) {
  workload::RandomTaskSetOptions gen;
  gen.num_tasks = 3;
  gen.bcec_wcec_ratio = 0.3;
  gen.max_sub_instances = 24;

  ExperimentGrid grid;
  grid.dvs = &dvs;
  grid.sources = {RandomSource("random-3", gen, 1),
                  FixedSource("tiny-fixed", TinyFixedSet(dvs))};
  grid.scenarios = {"iid-normal", "heavy-tail"};
  grid.sigma_divisors = {5.0, 8.0};
  grid.methods = {"acs", "acs-scenario", "acs-mixture"};
  grid.baseline = "acs";
  grid.planning.calibration_samples = 64;
  grid.warm_start = core::WarmStartPolicy::kNeighbor;
  grid.hyper_periods = 10;
  grid.master_seed = 11;
  return grid;
}

struct GridRunArtifacts {
  std::string unsharded;              // full serial CSV text
  std::vector<std::string> shards;    // per-shard CSV texts
  std::size_t unsharded_rows = 0;
  std::size_t shard_rows = 0;
};

GridRunArtifacts RunUnshardedAndSharded(const ExperimentGrid& grid,
                                        bool scenario_column,
                                        bool solver_stats,
                                        std::size_t shard_count) {
  GridRunArtifacts artifacts;

  const std::string full_path = FreshPath("shard_test_unsharded");
  {
    CsvSink sink(full_path, scenario_column, solver_stats);
    RunOptions options;
    options.threads = 1;  // serial: the reference row order
    options.sink = &sink;
    const GridResult result = RunGrid(grid, options);
    EXPECT_EQ(result.failed_cells, 0u);
    artifacts.unsharded_rows = sink.rows();
  }
  artifacts.unsharded = ReadFile(full_path);
  std::remove(full_path.c_str());

  for (std::size_t shard = 0; shard < shard_count; ++shard) {
    const std::string path =
        FreshPath("shard_test_part" + std::to_string(shard));
    {
      CsvSink sink(path, scenario_column, solver_stats);
      RunOptions options;
      options.threads = 2;  // out-of-order rows; the merge must fix it
      options.sink = &sink;
      options.shard_index = shard;
      options.shard_count = shard_count;
      const GridResult result = RunGrid(grid, options);
      EXPECT_EQ(result.failed_cells, 0u);
      artifacts.shard_rows += sink.rows();
    }
    artifacts.shards.push_back(ReadFile(path));
    std::remove(path.c_str());
  }
  return artifacts;
}

ShardCsv ParseText(const std::string& text) {
  const std::string path = FreshPath("shard_test_text");
  {
    std::ofstream out(path, std::ios::binary);
    out << text;
  }
  ShardCsv shard = ParseShardCsv(path);
  std::remove(path.c_str());
  return shard;
}

TEST(RunnerShard, TwoShardMergeByteIdenticalToUnshardedSerialRun) {
  const model::LinearDvsModel cpu = workload::DefaultModel();
  const ExperimentGrid grid = GoldenSmokeGrid(cpu);
  const GridRunArtifacts artifacts = RunUnshardedAndSharded(
      grid, /*scenario_column=*/false, /*solver_stats=*/false,
      /*shard_count=*/2);

  ASSERT_EQ(artifacts.shard_rows, artifacts.unsharded_rows)
      << "shards must cover the grid exactly once";
  std::vector<ShardCsv> shards;
  for (const std::string& text : artifacts.shards) {
    shards.push_back(ParseText(text));
  }
  EXPECT_EQ(MergeShardCsvs(shards), artifacts.unsharded);
}

TEST(RunnerShard, WarmStartedPlanningGridMergesByteIdenticalWithStats) {
  const model::LinearDvsModel cpu = workload::DefaultModel();
  const ExperimentGrid grid = WarmPlanningGrid(cpu);
  const GridRunArtifacts artifacts = RunUnshardedAndSharded(
      grid, /*scenario_column=*/true, /*solver_stats=*/true,
      /*shard_count=*/2);

  ASSERT_EQ(artifacts.shard_rows, artifacts.unsharded_rows);
  std::vector<ShardCsv> shards;
  for (const std::string& text : artifacts.shards) {
    shards.push_back(ParseText(text));
  }
  EXPECT_EQ(MergeShardCsvs(shards), artifacts.unsharded);
}

TEST(RunnerShard, SingleShardRoundTripsThroughTheFileApi) {
  const model::LinearDvsModel cpu = workload::DefaultModel();
  const ExperimentGrid grid = GoldenSmokeGrid(cpu);

  const std::string path = FreshPath("shard_test_single");
  {
    CsvSink sink(path);
    RunOptions options;
    options.threads = 1;
    options.sink = &sink;
    RunGrid(grid, options);
  }
  const std::string merged_path = FreshPath("shard_test_single_merged");
  const std::size_t rows = MergeShardCsvFiles({path}, merged_path);
  EXPECT_EQ(ReadFile(merged_path), ReadFile(path));
  EXPECT_EQ(rows, grid.CellCount() * grid.methods.size());
  std::remove(path.c_str());
  std::remove(merged_path.c_str());
}

TEST(RunnerShard, RunGridRejectsInvalidShardOptions) {
  const model::LinearDvsModel cpu = workload::DefaultModel();
  const ExperimentGrid grid = GoldenSmokeGrid(cpu);
  RunOptions options;
  options.shard_count = 0;
  EXPECT_THROW(RunGrid(grid, options), util::Error);
  options.shard_count = 2;
  options.shard_index = 2;
  EXPECT_THROW(RunGrid(grid, options), util::Error);
}

TEST(RunnerShard, SkippedCellsCarryNoOutcomesAndNoFailures) {
  const model::LinearDvsModel cpu = workload::DefaultModel();
  const ExperimentGrid grid = GoldenSmokeGrid(cpu);
  RunOptions options;
  options.threads = 1;
  options.shard_index = 0;
  options.shard_count = 2;
  const GridResult result = RunGrid(grid, options);
  EXPECT_EQ(result.failed_cells, 0u);
  std::size_t evaluated = 0;
  std::size_t skipped = 0;
  for (const CellResult& cell : result.cells) {
    if (cell.skipped) {
      ++skipped;
      EXPECT_TRUE(cell.outcomes.empty());
      EXPECT_TRUE(cell.error.empty());
    } else {
      ++evaluated;
      EXPECT_EQ(cell.outcomes.size(), grid.methods.size());
    }
  }
  EXPECT_GT(evaluated, 0u);
  EXPECT_GT(skipped, 0u);
  EXPECT_EQ(evaluated + skipped, grid.CellCount());
}

// ---- merge error taxonomy, on synthetic inputs -----------------------------

ShardCsv Synthetic(const std::string& header,
                   const std::vector<std::string>& rows) {
  ShardCsv shard;
  shard.header = header;
  for (const std::string& row : rows) {
    shard.cells.push_back(static_cast<std::size_t>(std::stoul(row)));
    shard.rows.push_back(row);
  }
  return shard;
}

TEST(RunnerShard, MergeRejectsDisagreeingHeaders) {
  const ShardCsv a = Synthetic("cell_index,x", {"0,1"});
  const ShardCsv b = Synthetic("cell_index,y", {"1,2"});
  EXPECT_THROW(MergeShardCsvs({a, b}), util::Error);
}

TEST(RunnerShard, MergeRejectsOverlappingShards) {
  const ShardCsv a = Synthetic("h", {"0,a", "1,a"});
  const ShardCsv b = Synthetic("h", {"1,b", "2,b"});
  try {
    MergeShardCsvs({a, b});
    FAIL() << "overlap not detected";
  } catch (const util::Error& error) {
    EXPECT_NE(std::string(error.what()).find("more than one shard"),
              std::string::npos)
        << error.what();
  }
}

TEST(RunnerShard, MergeRejectsCoverageGaps) {
  const ShardCsv a = Synthetic("h", {"0,a"});
  const ShardCsv b = Synthetic("h", {"2,b"});  // cell 1 missing
  try {
    MergeShardCsvs({a, b});
    FAIL() << "gap not detected";
  } catch (const util::Error& error) {
    EXPECT_NE(std::string(error.what()).find("missing cell"),
              std::string::npos)
        << error.what();
  }
}

TEST(RunnerShard, MergeKeepsPerCellRowOrderAcrossOutOfOrderShards) {
  // Shard files arrive with cells out of order (threads > 1); the merge
  // sorts by cell but must keep each cell's method rows in file order.
  const ShardCsv a = Synthetic("h", {"2,first", "2,second", "0,first"});
  const ShardCsv b = Synthetic("h", {"1,first", "1,second"});
  const std::string merged = MergeShardCsvs({a, b});
  EXPECT_EQ(merged,
            "h\n0,first\n1,first\n1,second\n2,first\n2,second\n");
}

// ---- telemetry artifact merging alongside the CSVs -------------------------

/// One shard's full artifact set, produced exactly as tools/shard_grid
/// does it: registry + recorder installed around the sharded RunGrid.
struct ShardTelemetry {
  std::string manifest;
  std::string trace;
};

ShardTelemetry RunShardWithTelemetry(const ExperimentGrid& grid,
                                     std::size_t shard,
                                     std::size_t shard_count) {
  obs::MetricsRegistry metrics;
  obs::TraceRecorder trace;
  obs::InstallMetrics(&metrics);
  obs::TraceRecorder::Install(&trace);
  {
    RunOptions options;
    options.threads = 2;
    options.shard_index = shard;
    options.shard_count = shard_count;
    const GridResult result = RunGrid(grid, options);
    EXPECT_EQ(result.failed_cells, 0u);
  }
  obs::TraceRecorder::Install(nullptr);
  obs::InstallMetrics(nullptr);

  obs::RunManifest manifest;
  manifest.tool = "runner_shard_test";
  manifest.master_seed = grid.master_seed;
  manifest.threads = 2;
  manifest.shard_index = shard;
  manifest.shard_count = shard_count;
  manifest.wall_ms = 1.0;
  manifest.config = {{"grid", "smoke"}};
  ShardTelemetry artifacts;
  artifacts.manifest = obs::RenderManifest(manifest, &metrics);
  artifacts.trace =
      trace.RenderChromeTrace(static_cast<std::uint32_t>(shard));
  return artifacts;
}

TEST(RunnerShard, TelemetryArtifactsMergeAlongsideTheCsvs) {
  const model::LinearDvsModel cpu = workload::DefaultModel();
  const ExperimentGrid grid = GoldenSmokeGrid(cpu);
  const ShardTelemetry s0 = RunShardWithTelemetry(grid, 0, 2);
  const ShardTelemetry s1 = RunShardWithTelemetry(grid, 1, 2);

  // Manifests recombine; the merged metrics cover the whole grid — cell
  // counts are result-charged, so the sum is exact.
  const util::JsonValue merged =
      util::ParseJson(obs::MergeManifests({s0.manifest, s1.manifest}));
  EXPECT_EQ(merged.At("shards").array.size(), 2u);
  EXPECT_DOUBLE_EQ(
      merged.At("metrics").At("counters").NumberAt("grid.cells_evaluated"),
      static_cast<double>(grid.CellCount()));

  // Traces recombine with one process group per shard.
  const util::JsonValue trace =
      util::ParseJson(obs::MergeChromeTraces({s0.trace, s1.trace}, {0, 1}));
  ASSERT_FALSE(trace.At("traceEvents").array.empty());

  // The error taxonomy the merge tool surfaces:
  // (1) the same shard twice is a double merge, not a silent overwrite;
  try {
    obs::MergeManifests({s0.manifest, s0.manifest});
    FAIL() << "double merge not detected";
  } catch (const util::Error& error) {
    EXPECT_NE(std::string(error.what()).find("double merge"),
              std::string::npos)
        << error.what();
  }
  // (2) a lost shard is a coverage gap;
  try {
    obs::MergeManifests({s1.manifest});
    FAIL() << "missing shard not detected";
  } catch (const util::Error& error) {
    EXPECT_NE(std::string(error.what()).find("missing shard"),
              std::string::npos)
        << error.what();
  }
  // (3) shards from different runs conflict instead of merging;
  ExperimentGrid other = GoldenSmokeGrid(cpu);
  other.master_seed = 8;
  const ShardTelemetry foreign = RunShardWithTelemetry(other, 1, 2);
  try {
    obs::MergeManifests({s0.manifest, foreign.manifest});
    FAIL() << "conflicting manifests not detected";
  } catch (const util::Error& error) {
    EXPECT_NE(std::string(error.what()).find("conflict"), std::string::npos)
        << error.what();
  }
  // (4) a missing shard trace (pid list out of step) is a hard error, as
  // is a trace file that is not a trace document.
  EXPECT_THROW(obs::MergeChromeTraces({s0.trace, s1.trace}, {0}),
               util::Error);
  EXPECT_THROW(obs::MergeChromeTraces({"{}"}, {0}), util::Error);
}

TEST(RunnerShard, HeaderOnlyShardAndMissingTrailingNewlineMerge) {
  // A shard handed a set range past the grid's set count evaluates nothing
  // and writes only the CSV header; hand-truncated or foreign files may
  // additionally lack the trailing newline.  Both parse, the empty shard
  // contributes zero rows to the merge, and the merged text is normalized
  // (every line newline-terminated) regardless of the inputs.
  const std::string empty_path = FreshPath("shard_header_only");
  const std::string full_path = FreshPath("shard_no_trailing_newline");
  {
    std::ofstream out(empty_path, std::ios::binary);
    out << "h";  // header only, no trailing newline
  }
  {
    std::ofstream out(full_path, std::ios::binary);
    out << "h\n0,a\n1,b";  // last row unterminated
  }
  const ShardCsv empty = ParseShardCsv(empty_path);
  EXPECT_EQ(empty.header, "h");
  EXPECT_TRUE(empty.rows.empty());
  const ShardCsv full = ParseShardCsv(full_path);
  ASSERT_EQ(full.rows.size(), 2u);
  EXPECT_EQ(full.rows.back(), "1,b");
  EXPECT_EQ(MergeShardCsvs({empty, full}), "h\n0,a\n1,b\n");

  // Same through the file API: the row count excludes the empty shard.
  const std::string merged_path = FreshPath("shard_header_only_merged");
  EXPECT_EQ(MergeShardCsvFiles({empty_path, full_path}, merged_path), 2u);
  EXPECT_EQ(ReadFile(merged_path), "h\n0,a\n1,b\n");
  std::remove(empty_path.c_str());
  std::remove(full_path.c_str());
  std::remove(merged_path.c_str());
}

/// A metrics-free shard manifest for the synthetic merge tests.
std::string RenderPlainManifest(std::size_t shard, std::size_t count) {
  obs::RunManifest manifest;
  manifest.tool = "runner_shard_test";
  manifest.master_seed = 7;
  manifest.threads = 1;
  manifest.shard_index = shard;
  manifest.shard_count = count;
  manifest.wall_ms = 1.0;
  manifest.config = {{"grid", "smoke"}};
  return obs::RenderManifest(manifest, nullptr);
}

TEST(RunnerShard, ManifestMergeAcceptsAnEmptyShardList) {
  // The manifest companion of the header-only CSV: a shard that covered no
  // cells may legitimately report an empty "shards" list.  It folds its
  // measurements without claiming an index; coverage is still enforced
  // over the other inputs.
  const std::string s0 = RenderPlainManifest(0, 2);
  const std::string s1 = RenderPlainManifest(1, 2);
  std::string empty = RenderPlainManifest(0, 2);
  const std::string needle = "\"shards\":[0]";
  const std::size_t pos = empty.find(needle);
  ASSERT_NE(pos, std::string::npos);
  empty.replace(pos, needle.size(), "\"shards\":[]");

  const util::JsonValue merged =
      util::ParseJson(obs::MergeManifests({s0, empty, s1}));
  ASSERT_EQ(merged.At("shards").array.size(), 2u);
  EXPECT_DOUBLE_EQ(merged.At("shards").array[0].number, 0.0);
  EXPECT_DOUBLE_EQ(merged.At("shards").array[1].number, 1.0);
  // All three wall clocks folded, the empty shard's included.
  EXPECT_DOUBLE_EQ(merged.At("run").NumberAt("wall_ms"), 3.0);
}

TEST(RunnerShard, ManifestMergeRejectsNullMetricValues) {
  // A non-finite metric serialises as null (util::JsonWriter); folding it
  // as 0 would silently understate the merged totals, so the merge refuses
  // and names the metric.
  const model::LinearDvsModel cpu = workload::DefaultModel();
  const ExperimentGrid grid = GoldenSmokeGrid(cpu);
  const ShardTelemetry s0 = RunShardWithTelemetry(grid, 0, 2);
  const ShardTelemetry s1 = RunShardWithTelemetry(grid, 1, 2);
  std::string corrupted = s1.manifest;
  const std::string needle = "\"grid.cells_evaluated\":";
  const std::size_t pos = corrupted.find(needle);
  ASSERT_NE(pos, std::string::npos);
  const std::size_t value_at = pos + needle.size();
  const std::size_t value_end = corrupted.find_first_of(",}", value_at);
  ASSERT_NE(value_end, std::string::npos);
  corrupted.replace(value_at, value_end - value_at, "null");

  try {
    obs::MergeManifests({s0.manifest, corrupted});
    FAIL() << "null metric not rejected";
  } catch (const util::Error& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("finite"), std::string::npos) << what;
    EXPECT_NE(what.find("grid.cells_evaluated"), std::string::npos) << what;
  }
}

TEST(RunnerShard, ParseRejectsMissingAndMalformedFiles) {
  EXPECT_THROW(ParseShardCsv(FreshPath("shard_test_nonexistent")),
               util::Error);
  const std::string path = FreshPath("shard_test_malformed");
  {
    std::ofstream out(path, std::ios::binary);
    out << "header\nnot-a-cell-index,1\n";
  }
  EXPECT_THROW(ParseShardCsv(path), util::Error);
  std::remove(path.c_str());
}

// --------------------------------------------- shard x cache-dir interplay

std::string FreshCacheDir(const std::string& stem) {
  return ::testing::TempDir() + stem + "." +
         std::to_string(static_cast<long long>(::getpid()));
}

/// Empties a store directory so repeated test-binary runs stay cold.
void PurgeCacheDir(const std::string& dir) {
  core::SolveStore store(dir);
  for (std::uint64_t key : store.DiskKeys()) {
    std::remove(store.EntryPath(key).c_str());
  }
}

/// One shard of `grid` on 2 threads with `store` attached (may be null);
/// returns the shard's CSV text.
std::string RunShardWithStore(const ExperimentGrid& grid, std::size_t shard,
                              std::size_t shard_count,
                              core::SolveStore* store) {
  const std::string path =
      FreshPath("shard_cache_part" + std::to_string(shard));
  {
    CsvSink sink(path, /*scenario_column=*/true,
                 /*solver_stats_columns=*/true);
    RunOptions options;
    options.threads = 2;
    options.sink = &sink;
    options.shard_index = shard;
    options.shard_count = shard_count;
    options.solve_store = store;
    const GridResult result = RunGrid(grid, options);
    EXPECT_EQ(result.failed_cells, 0u);
  }
  std::string text = ReadFile(path);
  std::remove(path.c_str());
  return text;
}

TEST(RunnerShardCache, PerShardCacheDirsMergeAndWarmRerunByteIdentical) {
  const model::LinearDvsModel cpu = workload::DefaultModel();
  const ExperimentGrid grid = WarmPlanningGrid(cpu);

  // Reference: unsharded serial run, no cache.
  const std::string reference_path = FreshPath("shard_cache_reference");
  {
    CsvSink sink(reference_path, /*scenario_column=*/true,
                 /*solver_stats_columns=*/true);
    RunOptions options;
    options.threads = 1;
    options.sink = &sink;
    const GridResult result = RunGrid(grid, options);
    EXPECT_EQ(result.failed_cells, 0u);
  }
  const std::string reference = ReadFile(reference_path);
  std::remove(reference_path.c_str());

  // Cold sharded run, each shard its own writable dir: the merge is still
  // byte-identical to the cache-free serial run.
  const std::string dir0 = FreshCacheDir("shard_cache_dir0");
  const std::string dir1 = FreshCacheDir("shard_cache_dir1");
  PurgeCacheDir(dir0);
  PurgeCacheDir(dir1);
  std::vector<std::string> cold_texts;
  {
    core::SolveStore store0(dir0);
    cold_texts.push_back(RunShardWithStore(grid, 0, 2, &store0));
    EXPECT_GT(store0.WriteBack(), 0u);
  }
  {
    core::SolveStore store1(dir1);
    cold_texts.push_back(RunShardWithStore(grid, 1, 2, &store1));
    EXPECT_GT(store1.WriteBack(), 0u);
  }
  EXPECT_EQ(MergeShardCsvs({ParseText(cold_texts[0]), ParseText(cold_texts[1])}),
            reference);

  // Warm re-run of shard 0 through a fresh store over its populated dir:
  // the pre-seeded solves move no byte.
  {
    core::SolveStore warm(dir0);
    EXPECT_EQ(RunShardWithStore(grid, 0, 2, &warm), cold_texts[0]);
  }

  // Shared read-only pre-seed: both shards over ONE warmed dir, stores
  // open simultaneously (read-only opens never take the writer LOCK).
  {
    core::SolveStore ro0(dir0, /*read_only=*/true);
    core::SolveStore ro1(dir0, /*read_only=*/true);
    const std::string t0 = RunShardWithStore(grid, 0, 2, &ro0);
    const std::string t1 = RunShardWithStore(grid, 1, 2, &ro1);
    EXPECT_EQ(MergeShardCsvs({ParseText(t0), ParseText(t1)}), reference);
    // Read-only stores never write back.
    EXPECT_EQ(ro1.WriteBack(), 0u);
  }

  // Two concurrent *writers* on one cache dir hard-error before any cell
  // runs — the misconfiguration tools/shard_grid documents.
  {
    core::SolveStore writer(dir0);
    EXPECT_THROW(core::SolveStore second(dir0), util::Error);
  }
}

}  // namespace
}  // namespace dvs::runner
