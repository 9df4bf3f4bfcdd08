// End-to-end telemetry contract: the observation-only invariant and the
// artifact formats.
//
// The load-bearing test here is the golden-bytes one: running the exact
// grids behind tests/data/golden_*.csv with the FULL telemetry stack
// installed (metrics registry + trace recorder + convergence recorder)
// must still produce byte-identical CSVs — tracing observes the pipeline,
// it never perturbs it.  The rest pins the artifact formats those runs
// emit: Chrome trace_event JSON with the grid -> cell -> solve nesting and
// cache annotations, valid JSONL convergence records, and the
// "acs.run_manifest/1" schema with its merge error taxonomy (conflict /
// double-merge / missing-shard), which tools/merge_results surfaces.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "obs/convergence.h"
#include "obs/manifest.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runner/csv_sink.h"
#include "runner/experiment_grid.h"
#include "runner/golden_grids.h"
#include "runner/run_grid.h"
#include "util/error.h"
#include "util/json.h"
#include "workload/presets.h"
#include "workload/random_taskset.h"

namespace dvs::obs {
namespace {

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::string FreshPath(const std::string& stem, const std::string& ext) {
  return ::testing::TempDir() + stem + "." +
         std::to_string(static_cast<long long>(::getpid())) + ext;
}

/// Runs `grid` serially with the full telemetry stack installed and
/// returns the produced CSV bytes.  Artifacts land in the caller's paths.
std::string RunWithTelemetry(const runner::ExperimentGrid& grid,
                             bool scenario_column,
                             MetricsRegistry* metrics,
                             TraceRecorder* trace,
                             const std::string& convergence_path,
                             std::size_t* convergence_records = nullptr) {
  const std::string csv_path =
      FreshPath(scenario_column ? "telemetry_planning" : "telemetry_smoke",
                ".csv");
  ConvergenceRecorder convergence(convergence_path);
  InstallMetrics(metrics);
  TraceRecorder::Install(trace);
  ConvergenceRecorder::Install(&convergence);
  {
    runner::CsvSink sink(csv_path, scenario_column);
    runner::RunOptions options;
    options.threads = 1;
    options.sink = &sink;
    const runner::GridResult result = runner::RunGrid(grid, options);
    EXPECT_EQ(result.failed_cells, 0u);
  }
  ConvergenceRecorder::Install(nullptr);
  TraceRecorder::Install(nullptr);
  InstallMetrics(nullptr);
  convergence.Flush();
  if (convergence_records != nullptr) {
    *convergence_records = convergence.records();
  }

  const std::string bytes = ReadFile(csv_path);
  std::remove(csv_path.c_str());
  return bytes;
}

/// The tentpole invariant, half one: the legacy golden grid run with
/// metrics + tracing + convergence recording fully on still produces the
/// checked-in bytes.  (runner_golden_csv_test pins the telemetry-off run
/// against the same file, so together they pin on == off == golden.)
TEST(TelemetryGoldenBytes, SmokeGridUnchangedWithFullTelemetryOn) {
  const model::LinearDvsModel cpu = workload::DefaultModel();

  MetricsRegistry metrics;
  metrics.EnsureShards(1);
  TraceRecorder trace;
  const std::string convergence_path =
      FreshPath("telemetry_smoke_convergence", ".jsonl");
  std::size_t records = 0;
  const std::string fresh = RunWithTelemetry(
      runner::GoldenSmokeGrid(cpu), /*scenario_column=*/false, &metrics,
      &trace, convergence_path, &records);

  const std::string golden =
      ReadFile(std::string(ACS_TEST_DATA_DIR) + "/golden_smoke_grid.csv");
  ASSERT_FALSE(golden.empty());
  EXPECT_EQ(fresh, golden)
      << "telemetry must be observation-only: the golden CSV bytes changed "
         "with the metrics/trace/convergence recorders installed";

  // The run actually recorded: cells counted, spans buffered.
  const std::vector<AggregatedMetric> agg = metrics.Aggregate();
  EXPECT_GT(agg[metric::kCellsEvaluated].count, 0);
  EXPECT_GT(trace.event_count(), 0u);
  // Exact solver work: a change to the solver's
  // trajectory (or to how a line search counts its trials) fails here and
  // must re-pin both counts on purpose.
  // Re-pinned when ACS moved to the converged Newton solve (from 48268
  // evaluations and 47088 inner iterations under the capped ALM), again
  // when that solve became primal-dual (from 2392 and 2348), and again when
  // the exact WCS solve moved onto the same primal-dual driver (from 1372
  // and 1336; it now counts one evaluation per Newton system).
  EXPECT_EQ(agg[metric::kSolverEvals].count, 528);
  EXPECT_EQ(agg[metric::kSolverInner].count, 528);

  // Every ACS solve of the smoke grid converges on the Newton path, so the
  // ALM (the only solver that writes convergence records) never runs.
  EXPECT_EQ(records, 0u);
  std::remove(convergence_path.c_str());
}

/// The exact WCS path end to end on the smoke grid: every WCS solve is
/// certified (gap histogram filled, at most 1e-6), none falls back, and the
/// new keys reach the rendered manifest.
TEST(TelemetryExactWcs, CertifiedSolvesAndKeysReachTheManifest) {
  const model::LinearDvsModel cpu = workload::DefaultModel();
  const runner::ExperimentGrid grid = runner::GoldenSmokeGrid(cpu);

  MetricsRegistry metrics;
  metrics.EnsureShards(1);
  InstallMetrics(&metrics);
  {
    runner::RunOptions options;
    options.threads = 1;
    EXPECT_EQ(runner::RunGrid(grid, options).failed_cells, 0u);
  }
  InstallMetrics(nullptr);

  RunManifest manifest;
  manifest.tool = "telemetry_test";
  const util::JsonValue doc =
      util::ParseJson(RenderManifest(manifest, &metrics));
  const util::JsonValue& counters = doc.At("metrics").At("counters");
  EXPECT_DOUBLE_EQ(counters.NumberAt("solve.wcs_fallbacks"), 0.0);
  for (const char* reason : {"breakdown", "repair"}) {
    EXPECT_DOUBLE_EQ(
        counters.NumberAt(std::string("solve.wcs_fallbacks.") + reason), 0.0);
  }
  EXPECT_GE(counters.NumberAt("solver.inner_capped"), 0.0);
  const util::JsonValue& gap =
      doc.At("metrics").At("histograms").At("solve.wcs_gap");
  EXPECT_GT(gap.NumberAt("count"), 0.0);
  EXPECT_DOUBLE_EQ(gap.NumberAt("count"),
                   counters.NumberAt("solve.wcs_solves"));
  EXPECT_LE(gap.NumberAt("max"), 1e-6);
  // Each certified solve observes its Newton systems.
  const util::JsonValue& wcs_steps =
      doc.At("metrics").At("histograms").At("solve.wcs_newton_steps");
  EXPECT_DOUBLE_EQ(wcs_steps.NumberAt("count"), gap.NumberAt("count"));
  EXPECT_GE(wcs_steps.NumberAt("min"), 1.0);
  // Every cell of the smoke grid solves, so each reports its largest final
  // violation once.
  const util::JsonValue& violation =
      doc.At("metrics").At("histograms").At("solver.final_violation");
  EXPECT_DOUBLE_EQ(violation.NumberAt("count"),
                   counters.NumberAt("grid.cells_evaluated"));
  EXPECT_GE(violation.NumberAt("min"), 0.0);
  // Every solve repair accepted reports how far repair moved its end-times:
  // each certified WCS solve, plus the ACS solves.
  const util::JsonValue& shift =
      doc.At("metrics").At("histograms").At("repair.max_shift");
  EXPECT_GT(shift.NumberAt("count"), counters.NumberAt("solve.wcs_solves"));
  EXPECT_GE(shift.NumberAt("min"), 0.0);
  // Every ACS solve converges on the Newton path: no fallback, and per
  // solve one final KKT residual at or below the tolerance, its Newton
  // systems and its patterns.
  EXPECT_DOUBLE_EQ(counters.NumberAt("solve.acs_fallbacks"), 0.0);
  for (const char* reason :
       {"breakdown", "no_convergence", "repair", "worse"}) {
    EXPECT_DOUBLE_EQ(
        counters.NumberAt(std::string("solve.acs_fallbacks.") + reason), 0.0);
  }
  const util::JsonValue& histograms = doc.At("metrics").At("histograms");
  const util::JsonValue& kkt = histograms.At("solve.acs_kkt");
  EXPECT_DOUBLE_EQ(kkt.NumberAt("count"),
                   counters.NumberAt("solve.acs_solves"));
  EXPECT_LE(kkt.NumberAt("max"), 1e-9);
  for (const char* work : {"solve.acs_newton_steps", "solve.acs_patterns"}) {
    const util::JsonValue& histogram = histograms.At(work);
    EXPECT_DOUBLE_EQ(histogram.NumberAt("count"), kkt.NumberAt("count"))
        << work;
    EXPECT_GE(histogram.NumberAt("min"), 1.0) << work;
  }
}

/// Half two: the planning-arm golden (calibration, warm-link chains and
/// planned-solve caching all instrumented) is also byte-stable.
TEST(TelemetryGoldenBytes, PlanningGridUnchangedWithFullTelemetryOn) {
  const model::LinearDvsModel cpu = workload::DefaultModel();

  MetricsRegistry metrics;
  metrics.EnsureShards(1);
  TraceRecorder trace;
  const std::string convergence_path =
      FreshPath("telemetry_planning_convergence", ".jsonl");
  std::size_t records = 0;
  const std::string fresh = RunWithTelemetry(
      runner::GoldenPlanningGrid(cpu), /*scenario_column=*/true, &metrics,
      &trace, convergence_path, &records);
  // The mixture arm solves with the ALM, which records its iterations.
  EXPECT_GT(records, 0u);
  // Every convergence line is a standalone JSON object with the record
  // schema the plotting scripts key on.
  std::ifstream jsonl(convergence_path);
  ASSERT_TRUE(jsonl.good());
  std::string line;
  std::size_t lines = 0;
  while (std::getline(jsonl, line)) {
    const util::JsonValue record = util::ParseJson(line);
    ASSERT_TRUE(record.IsObject());
    EXPECT_NE(record.Find("solve"), nullptr);
    EXPECT_NE(record.Find("phase"), nullptr);
    const std::string event = record.StringAt("event");
    if (event == "spg") {
      EXPECT_NE(record.Find("f"), nullptr) << "spg record missing objective";
      EXPECT_NE(record.Find("criterion"), nullptr);
    } else {
      ASSERT_EQ(event, "alm");
      EXPECT_NE(record.Find("penalty"), nullptr);
      EXPECT_NE(record.Find("violation"), nullptr);
    }
    ++lines;
    if (lines >= 500) {
      break;  // format check, not an exhaustive parse of every record
    }
  }
  EXPECT_GT(lines, 0u);
  std::remove(convergence_path.c_str());

  const std::string golden =
      ReadFile(std::string(ACS_TEST_DATA_DIR) + "/golden_planning_grid.csv");
  ASSERT_FALSE(golden.empty());
  EXPECT_EQ(fresh, golden)
      << "telemetry must be observation-only on the planning arms too "
         "(calibrate / warm-link / planned-solve instrumentation)";

  // The planning instrumentation fired: calibrations ran and the trace
  // contains calibrate + warm-link phases.
  const std::vector<AggregatedMetric> agg = metrics.Aggregate();
  EXPECT_GT(agg[metric::kCalibrations].count, 0);
  std::set<std::string> names;
  for (const TraceEvent& event : trace.Events()) {
    names.insert(event.name);
  }
  EXPECT_TRUE(names.count("calibrate") == 1) << "calibrate span missing";
  EXPECT_TRUE(names.count("planned") == 1) << "planned span missing";
}

/// Sigma-axis neighbor warm starts chain planned solves link by link; each
/// link gets its own "warm-link" span with sigma/link annotations.  (The
/// golden planning grid has a single sigma divisor, so this needs its own
/// grid with a real chain.)
TEST(TraceFormat, WarmLinkSpansAppearUnderNeighborWarmStart) {
  const model::LinearDvsModel cpu = workload::DefaultModel();

  runner::ExperimentGrid grid;
  grid.dvs = &cpu;
  grid.sources = {
      runner::FixedSource("tiny-fixed", runner::TinyFixedSet(cpu))};
  grid.sigma_divisors = {6.0, 10.0};
  grid.scenarios = {"iid-normal"};
  grid.methods = {"acs-scenario"};
  grid.baseline = "acs-scenario";
  grid.planning.calibration_samples = 64;
  grid.hyper_periods = 4;
  grid.master_seed = 3;
  grid.warm_start = core::WarmStartPolicy::kNeighbor;

  TraceRecorder trace;
  TraceRecorder::Install(&trace);
  {
    runner::RunOptions options;
    options.threads = 1;
    const runner::GridResult result = runner::RunGrid(grid, options);
    EXPECT_EQ(result.failed_cells, 0u);
  }
  TraceRecorder::Install(nullptr);

  std::size_t links = 0;
  for (const TraceEvent& event : trace.Events()) {
    if (std::string(event.name) != "warm-link") {
      continue;
    }
    ++links;
    bool has_sigma = false;
    for (const auto& [key, value] : event.args) {
      has_sigma = has_sigma || key == std::string("sigma");
    }
    EXPECT_TRUE(has_sigma) << "warm-link span lacks its sigma annotation";
  }
  // The deepest cell's chain has two links; shallower cells contribute one.
  EXPECT_GE(links, 2u);
}

TEST(TraceFormat, ChromeTraceNestsGridCellSolveWithCacheAnnotations) {
  const model::LinearDvsModel cpu = workload::DefaultModel();
  MetricsRegistry metrics;
  metrics.EnsureShards(1);
  TraceRecorder trace;
  const std::string convergence_path =
      FreshPath("trace_format_convergence", ".jsonl");
  RunWithTelemetry(runner::GoldenSmokeGrid(cpu), /*scenario_column=*/false,
                   &metrics, &trace, convergence_path);
  std::remove(convergence_path.c_str());

  const util::JsonValue doc = util::ParseJson(trace.RenderChromeTrace(3));
  EXPECT_EQ(doc.StringAt("displayTimeUnit"), "ms");
  const util::JsonValue& events = doc.At("traceEvents");
  ASSERT_TRUE(events.IsArray());
  ASSERT_FALSE(events.array.empty());

  std::set<std::string> names;
  bool saw_metadata = false;
  bool saw_cache_annotation = false;
  for (const util::JsonValue& event : events.array) {
    const std::string ph = event.StringAt("ph");
    EXPECT_EQ(event.NumberAt("pid"), 3.0);
    if (ph == "M") {
      saw_metadata = event.StringAt("name") == "thread_name";
      continue;
    }
    ASSERT_EQ(ph, "X") << "only complete events and metadata are emitted";
    names.insert(event.StringAt("name"));
    EXPECT_GE(event.NumberAt("dur"), 0.0);
    if (const util::JsonValue* args = event.Find("args")) {
      if (const util::JsonValue* cache = args->Find("cache")) {
        saw_cache_annotation = true;
        EXPECT_TRUE(cache->string == "hit" || cache->string == "miss");
      }
    }
  }
  EXPECT_TRUE(saw_metadata) << "thread_name metadata missing";
  EXPECT_TRUE(saw_cache_annotation) << "no cache hit/miss annotations";
  // The span hierarchy the flamegraph shows: grid -> cell -> solve phases.
  for (const char* required : {"grid", "cell", "alm", "wcs", "acs",
                               "simulate"}) {
    EXPECT_EQ(names.count(required), 1u) << required << " span missing";
  }

  // Merging two shard documents re-homes each input to its own pid.
  const std::string shard0 = trace.RenderChromeTrace(0);
  const std::string merged = MergeChromeTraces({shard0, shard0}, {0, 1});
  const util::JsonValue merged_doc = util::ParseJson(merged);
  std::set<double> pids;
  for (const util::JsonValue& event : merged_doc.At("traceEvents").array) {
    pids.insert(event.NumberAt("pid"));
  }
  EXPECT_EQ(pids, (std::set<double>{0.0, 1.0}));
  EXPECT_THROW(MergeChromeTraces({"not json"}, {0}), util::Error);
}

RunManifest ShardManifest(std::size_t index, std::size_t count) {
  RunManifest manifest;
  manifest.tool = "telemetry_test";
  manifest.master_seed = 7;
  manifest.threads = 2;
  manifest.shard_index = index;
  manifest.shard_count = count;
  manifest.wall_ms = 100.0 * static_cast<double>(index + 1);
  manifest.config = {{"grid", "smoke"}, {"warm_start", "off"}};
  return manifest;
}

TEST(Manifest, RenderMatchesSchema) {
  MetricsRegistry metrics;
  metrics.EnsureShards(1);
  metrics.Shard(0).Count(metric::kCellsEvaluated, 6);
  metrics.Shard(0).SetGauge(metric::kThreads, 2.0);
  metrics.Shard(0).Observe(metric::kCellWallUs, 250.0);

  const util::JsonValue doc =
      util::ParseJson(RenderManifest(ShardManifest(0, 2), &metrics));
  EXPECT_EQ(doc.StringAt("schema"), "acs.run_manifest/1");
  EXPECT_EQ(doc.StringAt("tool"), "telemetry_test");

  const util::JsonValue& build = doc.At("build");
  EXPECT_FALSE(build.StringAt("git_sha").empty());
  EXPECT_FALSE(build.StringAt("compiler").empty());
  EXPECT_FALSE(build.StringAt("simd").empty());

  const util::JsonValue& run = doc.At("run");
  EXPECT_DOUBLE_EQ(run.NumberAt("master_seed"), 7.0);
  EXPECT_DOUBLE_EQ(run.NumberAt("threads"), 2.0);
  EXPECT_DOUBLE_EQ(run.NumberAt("shard_count"), 2.0);
  EXPECT_DOUBLE_EQ(run.NumberAt("wall_ms"), 100.0);

  ASSERT_TRUE(doc.At("shards").IsArray());
  ASSERT_EQ(doc.At("shards").array.size(), 1u);
  EXPECT_DOUBLE_EQ(doc.At("shards").array[0].number, 0.0);
  EXPECT_EQ(doc.At("config").StringAt("grid"), "smoke");

  const util::JsonValue& counters = doc.At("metrics").At("counters");
  EXPECT_DOUBLE_EQ(counters.NumberAt("grid.cells_evaluated"), 6.0);
  const util::JsonValue& hist =
      doc.At("metrics").At("histograms").At("cell.wall_us");
  EXPECT_DOUBLE_EQ(hist.NumberAt("count"), 1.0);
  EXPECT_DOUBLE_EQ(hist.NumberAt("sum"), 250.0);
  ASSERT_TRUE(hist.At("buckets").IsArray());
  EXPECT_EQ(hist.At("buckets").array.size(),
            hist.At("bounds").array.size() + 1);
}

TEST(Manifest, MergeIgnoresPerShardExecutionSettings) {
  RunManifest s0 = ShardManifest(0, 2);
  RunManifest s1 = ShardManifest(1, 2);
  s0.execution = {{"cache_dir", "t0.cache"}, {"cache_read_only", "false"}};
  s1.execution = {{"cache_dir", "t1.cache"}, {"cache_read_only", "false"}};
  const util::JsonValue merged = util::ParseJson(MergeManifests(
      {RenderManifest(s0, nullptr), RenderManifest(s1, nullptr)}));
  ASSERT_TRUE(merged.At("execution").IsArray());
  ASSERT_EQ(merged.At("execution").array.size(), 2u);
  EXPECT_EQ(merged.At("execution").array[1].StringAt("cache_dir"),
            "t1.cache");
  EXPECT_EQ(merged.At("config").StringAt("grid"), "smoke");

  // A real configuration difference is still a conflict.
  s1.config = {{"grid", "smoke"}, {"warm_start", "neighbor"}};
  EXPECT_THROW(MergeManifests({RenderManifest(s0, nullptr),
                               RenderManifest(s1, nullptr)}),
               util::Error);
}

TEST(Manifest, MergeSumsCountersAndWallAcrossShards) {
  MetricsRegistry m0;
  m0.EnsureShards(1);
  m0.Shard(0).Count(metric::kCellsEvaluated, 4);
  m0.Shard(0).SetGauge(metric::kThreads, 2.0);
  m0.Shard(0).Observe(metric::kCellWallUs, 50.0);
  MetricsRegistry m1;
  m1.EnsureShards(1);
  m1.Shard(0).Count(metric::kCellsEvaluated, 8);
  m1.Shard(0).SetGauge(metric::kThreads, 4.0);
  m1.Shard(0).Observe(metric::kCellWallUs, 5e6);

  // Shard order must not matter: merge_results takes paths in any order.
  const std::string merged =
      MergeManifests({RenderManifest(ShardManifest(1, 2), &m1),
                      RenderManifest(ShardManifest(0, 2), &m0)});
  const util::JsonValue doc = util::ParseJson(merged);
  EXPECT_EQ(doc.StringAt("schema"), "acs.run_manifest/1");
  ASSERT_EQ(doc.At("shards").array.size(), 2u);
  EXPECT_DOUBLE_EQ(doc.At("shards").array[0].number, 0.0);
  EXPECT_DOUBLE_EQ(doc.At("shards").array[1].number, 1.0);
  EXPECT_DOUBLE_EQ(doc.At("run").NumberAt("wall_ms"), 100.0 + 200.0);
  EXPECT_DOUBLE_EQ(
      doc.At("metrics").At("counters").NumberAt("grid.cells_evaluated"),
      12.0);
  // Gauges take the max over shards.
  EXPECT_DOUBLE_EQ(doc.At("metrics").At("gauges").NumberAt("run.threads"),
                   4.0);
  // Histogram buckets sum bucket-wise, min/max fold.
  const util::JsonValue& hist =
      doc.At("metrics").At("histograms").At("cell.wall_us");
  EXPECT_DOUBLE_EQ(hist.NumberAt("count"), 2.0);
  EXPECT_DOUBLE_EQ(hist.NumberAt("min"), 50.0);
  EXPECT_DOUBLE_EQ(hist.NumberAt("max"), 5e6);

  // A merged document is itself schema-valid and re-mergeable as a whole
  // (it covers all shards), so double-merging it with a shard is caught:
  EXPECT_THROW(MergeManifests({merged, RenderManifest(ShardManifest(0, 2),
                                                      &m0)}),
               util::Error);
}

TEST(Manifest, MergeErrorTaxonomy) {
  const std::string s0 = RenderManifest(ShardManifest(0, 2), nullptr);
  const std::string s1 = RenderManifest(ShardManifest(1, 2), nullptr);

  const auto message_of = [](const std::vector<std::string>& texts) {
    try {
      MergeManifests(texts);
    } catch (const util::Error& error) {
      return std::string(error.what());
    }
    return std::string();
  };

  // Double merge: the same shard twice.
  EXPECT_NE(message_of({s0, s0}).find("double merge"), std::string::npos);
  // Missing shard: coverage has a gap.
  EXPECT_NE(message_of({s0}).find("missing shard"), std::string::npos);

  // Conflicts: differing tool / seed / config are all hard errors.
  RunManifest other_tool = ShardManifest(1, 2);
  other_tool.tool = "different_tool";
  EXPECT_NE(
      message_of({s0, RenderManifest(other_tool, nullptr)}).find("conflict"),
      std::string::npos);

  RunManifest other_seed = ShardManifest(1, 2);
  other_seed.master_seed = 8;
  EXPECT_NE(
      message_of({s0, RenderManifest(other_seed, nullptr)}).find(
          "master_seed"),
      std::string::npos);

  RunManifest other_config = ShardManifest(1, 2);
  other_config.config.emplace_back("extra", "key");
  EXPECT_NE(
      message_of({s0, RenderManifest(other_config, nullptr)}).find(
          "configs differ"),
      std::string::npos);

  // Unsupported schema and empty input.
  EXPECT_THROW(MergeManifests({R"({"schema": "acs.run_manifest/999"})"}),
               util::Error);
  EXPECT_THROW(MergeManifests({}), util::Error);
}

TEST(Manifest, WriteManifestCreatesParseableFile) {
  const std::string path = FreshPath("manifest_write", ".json");
  WriteManifest(path, ShardManifest(0, 1), nullptr);
  const util::JsonValue doc = util::ParseJson(ReadFile(path));
  EXPECT_EQ(doc.StringAt("schema"), "acs.run_manifest/1");
  std::remove(path.c_str());
  EXPECT_THROW(
      WriteManifest("/nonexistent-dir/manifest.json", ShardManifest(0, 1),
                    nullptr),
      util::Error);
}

}  // namespace
}  // namespace dvs::obs
