#include "bench_common.h"

#include <chrono>
#include <cmath>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <utility>

#include "core/solve_store.h"
#include "obs/convergence.h"
#include "obs/manifest.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runner/thread_pool.h"
#include "util/error.h"
#include "util/json.h"
#include "util/logging.h"
#include "util/strings.h"
#include "workload/random_taskset.h"

namespace dvs::bench {

TelemetryState::TelemetryState() = default;

TelemetryState::~TelemetryState() {
  // The recorders self-uninstall in their destructors; the metrics registry
  // uses a plain pointer, so clear it before the registry dies.
  if (metrics != nullptr && obs::ActiveMetrics() == metrics.get()) {
    obs::InstallMetrics(nullptr);
  }
}

void SweepConfig::Register(util::ArgParser& parser) {
  program = parser.program();
  parser.AddInt("tasksets", &tasksets,
                "random task sets per grid point");
  parser.AddInt("hyper-periods", &hyper_periods,
                "simulated hyper-periods per run");
  parser.AddInt("seeds", &seeds, "workload streams for fixed task sets");
  parser.AddInt("seed", reinterpret_cast<std::int64_t*>(&seed),
                "master random seed");
  parser.AddInt("threads", &threads,
                "worker threads for grid sweeps (0 = all hardware threads)");
  parser.AddString("methods", &methods,
                   "comma-separated registry methods to evaluate");
  parser.AddString("baseline", &baseline,
                   "registry method the improvement is measured against");
  parser.AddString("scenarios", &scenarios,
                   "comma-separated execution-time scenarios to sweep");
  parser.AddInt("mixture-samples", &planning.mixture_samples,
                "calibrated sample vectors the acs-mixture objective "
                "averages over");
  parser.AddInt("calibration-samples", &planning.calibration_samples,
                "offline calibration draws per task for the planning arms");
  parser.AddInt("online-dp-bins", &online.dp_bins,
                "cycle bins of the acs-online expected-case dispatch "
                "profile, 1-64");
  parser.AddDouble("drift-ewma", &online.drift_ewma,
                   "EWMA weight of one hyper-period's realised mean cycles "
                   "(acs-online-drift)");
  parser.AddDouble("drift-threshold", &online.drift_threshold,
                   "relative EWMA-vs-plan drift that triggers a warm-started "
                   "replan (acs-online-drift)");
  parser.AddString("warm-start", &warm_start,
                   "sigma-axis warm-start policy for the planning arms: "
                   "off | neighbor");
  parser.AddFlag("csv-solver-stats", &csv_solver_stats,
                 "append solver iteration/evaluation columns to --cell-csv "
                 "rows");
  parser.AddFlag("dpm", &dpm,
                 "enable the leakage-aware DPM layer (sleep states, "
                 "critical-speed floor, core reallocation)");
  parser.AddString("sleep-state", &sleep_state,
                   "DPM sleep-state preset: ideal | shallow | deep");
  parser.AddDouble("critical-speed", &critical_speed,
                   "critical-speed floor as a fraction of top speed "
                   "(0 = derive from the model, < 0 = no floor)");
  parser.AddFlag("dpm-no-realloc", &dpm_no_realloc,
                 "disable the cross-hyper-period core reallocation pass");
  parser.AddInt("realloc-after", &realloc_after,
                "hyper-periods before the consolidated partition takes over");
  parser.AddFlag("paper", &paper,
                 "paper scale: 100 task sets, 1000 hyper-periods");
  parser.AddString("csv", &csv, "write results to this CSV file");
  parser.AddString("cell-csv", &cell_csv,
                   "stream one row per (cell, method) to this CSV file");
  parser.AddString("bench-json", &bench_json,
                   "write a machine-readable timing/energy summary here");
  parser.AddInt("grid-repeats", &grid_repeats,
                "time each grid this many times (repeats > 0 re-run against "
                "warm per-thread workspaces; results come from repeat 0)");
  parser.AddString("trace-out", &trace_out,
                   "write a Chrome trace_event JSON of the run's phase "
                   "spans here (chrome://tracing, Perfetto)");
  parser.AddString("manifest-out", &manifest_out,
                   "write a run manifest (build, config, aggregated "
                   "metrics) here");
  parser.AddString("convergence-out", &convergence_out,
                   "write per-iteration SPG/ALM solver records (JSONL) "
                   "here");
  parser.AddFlag("metrics", &metrics,
                 "collect and print the aggregated telemetry counters");
  parser.AddString("cache-dir", &cache_dir,
                   "persistent cross-run solve cache directory (created if "
                   "missing; results are byte-identical with or without it)");
  parser.AddFlag("cache-read-only", &cache_read_only,
                 "open --cache-dir read-only: pre-seed solves without "
                 "locking or writing back (shared-cache shard flow)");
}

std::unique_ptr<runner::CsvSink> SweepConfig::OpenCellSink() {
  if (cell_csv.empty()) {
    return nullptr;
  }
  auto cell_sink = std::make_unique<runner::CsvSink>(
      cell_csv, SweepsScenarios(), csv_solver_stats, dpm);
  sink = cell_sink.get();
  return cell_sink;
}

void SweepConfig::Finalize() {
  if (paper) {
    tasksets = 100;
    hyper_periods = 1000;
    seeds = 20;
  }
  // Install the requested telemetry before any worker thread exists (the
  // Logger-style install-before-spawn contract).  A manifest wants the
  // aggregated metrics, so --manifest-out implies the registry.
  if ((metrics || !manifest_out.empty()) && telemetry->metrics == nullptr) {
    telemetry->metrics = std::make_unique<obs::MetricsRegistry>();
    telemetry->metrics->EnsureShards(
        static_cast<std::size_t>(ResolvedThreads()));
    obs::InstallMetrics(telemetry->metrics.get());
  }
  if (!trace_out.empty() && telemetry->trace == nullptr) {
    telemetry->trace = std::make_unique<obs::TraceRecorder>();
    obs::TraceRecorder::Install(telemetry->trace.get());
  }
  if (!convergence_out.empty() && telemetry->convergence == nullptr) {
    telemetry->convergence =
        std::make_unique<obs::ConvergenceRecorder>(convergence_out);
    obs::ConvergenceRecorder::Install(telemetry->convergence.get());
  }
  if (!cache_dir.empty() && solve_store == nullptr) {
    solve_store = std::make_shared<core::SolveStore>(cache_dir,
                                                     cache_read_only);
  }
}

std::vector<std::string> SweepConfig::MethodList() const {
  std::vector<std::string> list;
  std::vector<std::string> parts = util::Split(methods, ',');
  for (std::string& name : parts) {
    if (!name.empty()) {
      list.push_back(std::move(name));
    }
  }
  ACS_REQUIRE(!list.empty(), "--methods must name at least one method");
  return list;
}

std::vector<std::string> SweepConfig::ScenarioList() const {
  std::vector<std::string> list;
  std::vector<std::string> parts = util::Split(scenarios, ',');
  for (std::string& name : parts) {
    if (!name.empty()) {
      list.push_back(std::move(name));
    }
  }
  ACS_REQUIRE(!list.empty(), "--scenarios must name at least one scenario");
  return list;
}

bool SweepConfig::SweepsScenarios() const {
  const std::vector<std::string> list = ScenarioList();
  return list.size() != 1 || list.front() != "iid-normal";
}

dvs::dpm::Options SweepConfig::DpmOptions(const model::IdlePower& idle) const {
  dvs::dpm::Options options;
  options.enabled = dpm;
  options.idle = idle;
  options.sleep = dvs::dpm::ResolveSleepState(sleep_state, idle);
  options.critical_speed = critical_speed;
  options.reallocate = !dpm_no_realloc;
  options.realloc_after = realloc_after;
  return options;
}

core::WarmStartPolicy SweepConfig::WarmStartPolicy() const {
  if (warm_start == "off") {
    return core::WarmStartPolicy::kOff;
  }
  if (warm_start == "neighbor") {
    return core::WarmStartPolicy::kNeighbor;
  }
  throw util::InvalidArgumentError(
      "--warm-start must be off or neighbor, got \"" + warm_start + "\"");
}

runner::ExperimentGrid SweepConfig::MakeGrid(
    const model::DvsModel& dvs, std::vector<runner::TaskSetSource> sources,
    std::uint64_t grid_label) const {
  runner::ExperimentGrid grid;
  grid.dvs = &dvs;
  grid.sources = std::move(sources);
  grid.methods = MethodList();
  grid.baseline = baseline;
  grid.scenarios = ScenarioList();
  grid.hyper_periods = hyper_periods;
  grid.planning = planning;
  grid.online = online;
  grid.warm_start = WarmStartPolicy();
  // Decorrelate grid points sharing one config seed (e.g. fig6a's task-count
  // x ratio sweep runs one grid per point).
  grid.master_seed = stats::Rng(seed).ForkWith(grid_label).NextU64();
  return grid;
}

std::int64_t SweepConfig::ResolvedThreads() const {
  return threads > 0 ? threads : runner::ThreadPool::HardwareThreads();
}

runner::RunOptions SweepConfig::RunOpts() const {
  runner::RunOptions options;
  options.threads = static_cast<int>(threads);
  options.sink = sink;
  options.workspaces = workspaces.get();
  options.solve_store = solve_store.get();
  return options;
}

void SweepConfig::WriteBenchJson() const {
  if (bench_json.empty()) {
    return;
  }
  util::JsonWriter json;
  json.BeginObject();
  json.Key("bench").Value(program);
  json.Key("config")
      .BeginObject()
      .Key("tasksets")
      .Value(tasksets)
      .Key("hyper_periods")
      .Value(hyper_periods)
      .Key("seeds")
      .Value(seeds)
      .Key("seed")
      .Value(static_cast<std::uint64_t>(seed))
      .Key("threads")
      .Value(ResolvedThreads())
      .Key("methods")
      .Value(methods)
      .Key("baseline")
      .Value(baseline)
      .Key("scenarios")
      .Value(scenarios)
      .Key("grid_repeats")
      .Value(grid_repeats)
      .Key("paper")
      .Value(paper)
      .EndObject();
  json.Key("grids").BeginArray();
  for (const BenchReport::Entry& entry : report->entries) {
    json.BeginObject();
    json.Key("label").Value(entry.label);
    json.Key("repeat").Value(entry.repeat);
    json.Key("wall_ms").Value(entry.wall_ms);
    json.Key("cells").Value(static_cast<std::uint64_t>(entry.cells));
    json.Key("failed_cells")
        .Value(static_cast<std::uint64_t>(entry.failed_cells));
    json.Key("threads").Value(entry.threads);
    json.Key("methods").BeginArray();
    for (const BenchReport::MethodSummary& method : entry.methods) {
      json.BeginObject();
      json.Key("name").Value(method.name);
      json.Key("mean_measured_energy").Value(method.mean_measured_energy);
      json.Key("mean_improvement").Value(method.mean_improvement);
      json.EndObject();
    }
    json.EndArray();
    json.EndObject();
  }
  json.EndArray();
  json.Key("total_wall_ms").Value(report->total_wall_ms);
  // Cold (repeat 0) and warm (last repeat) wall-time totals across grids —
  // what the CI perf gate compares against its checked-in baseline.  The
  // last-repeat index uses the same >= 1 clamp as RunGridTimed, so
  // --grid-repeats 0 still reports the (single) run instead of zero.
  const std::int64_t last_repeat = std::max<std::int64_t>(1, grid_repeats) - 1;
  double cold_ms = 0.0;
  double warm_ms = 0.0;
  for (const BenchReport::Entry& entry : report->entries) {
    if (entry.repeat == 0) {
      cold_ms += entry.wall_ms;
    }
    if (entry.repeat == last_repeat) {
      warm_ms += entry.wall_ms;
    }
  }
  json.Key("cold_wall_ms").Value(cold_ms);
  json.Key("warm_wall_ms").Value(warm_ms);
  json.EndObject();

  std::ofstream out(bench_json);
  if (!out) {
    throw util::Error("cannot open --bench-json file: " + bench_json);
  }
  out << json.str() << '\n';
  std::cout << "bench json written to " << bench_json << "\n";
}

void SweepConfig::WriteRunArtifacts() const {
  // Write the solve cache back first so persist.write_backs — and the
  // final hit/miss tallies — land in the manifest's metric block below.
  if (solve_store != nullptr && !solve_store->read_only()) {
    const std::size_t written = solve_store->WriteBack();
    std::cout << "solve cache: " << written << " entr"
              << (written == 1 ? "y" : "ies") << " written back to "
              << solve_store->dir() << "\n";
  }
  if (telemetry->convergence != nullptr && !convergence_out.empty()) {
    telemetry->convergence->Flush();
    std::cout << "convergence records written to " << convergence_out << " ("
              << telemetry->convergence->records() << " records)\n";
  }
  if (telemetry->trace != nullptr && !trace_out.empty()) {
    telemetry->trace->WriteChromeTrace(trace_out);
    std::cout << "trace written to " << trace_out << " ("
              << telemetry->trace->event_count() << " spans)\n";
  }
  if (telemetry->metrics != nullptr && metrics) {
    std::cout << "telemetry metrics:\n";
    for (const obs::AggregatedMetric& metric : telemetry->metrics->Aggregate()) {
      switch (metric.kind) {
        case obs::MetricKind::kCounter:
          std::cout << "  " << metric.name << " = " << metric.count << "\n";
          break;
        case obs::MetricKind::kGauge:
          std::cout << "  " << metric.name << " = " << metric.value << "\n";
          break;
        case obs::MetricKind::kHistogram:
          std::cout << "  " << metric.name << " n=" << metric.count
                    << " sum=" << metric.value << "\n";
          break;
      }
    }
  }
  if (!manifest_out.empty()) {
    obs::RunManifest manifest;
    manifest.tool = program;
    manifest.master_seed = seed;
    manifest.threads = ResolvedThreads();
    manifest.wall_ms = report->total_wall_ms;
    manifest.config = {
        {"tasksets", std::to_string(tasksets)},
        {"hyper_periods", std::to_string(hyper_periods)},
        {"seeds", std::to_string(seeds)},
        {"threads", std::to_string(ResolvedThreads())},
        {"methods", methods},
        {"baseline", baseline},
        {"scenarios", scenarios},
        {"warm_start", warm_start},
        {"grid_repeats", std::to_string(grid_repeats)},
        {"paper", paper ? "true" : "false"},
    };
    manifest.execution = {
        {"cache_dir", cache_dir},
        {"cache_read_only", cache_read_only ? "true" : "false"},
    };
    obs::WriteManifest(manifest_out, manifest, telemetry->metrics.get());
    std::cout << "manifest written to " << manifest_out << "\n";
  }
}

runner::GridResult RunGridTimed(const runner::ExperimentGrid& grid,
                                const core::MethodRegistry& registry,
                                const SweepConfig& config, std::string label) {
  runner::GridResult result;
  for (std::int64_t repeat = 0; repeat < std::max<std::int64_t>(
                                    1, config.grid_repeats);
       ++repeat) {
    runner::RunOptions options = config.RunOpts();
    if (repeat > 0) {
      // Timing-only re-runs must not duplicate --cell-csv rows.
      options.sink = nullptr;
    }
    const auto start = std::chrono::steady_clock::now();
    runner::GridResult run = runner::RunGrid(grid, registry, options);
    const auto stop = std::chrono::steady_clock::now();

    BenchReport::Entry entry;
    entry.label = label;
    entry.repeat = repeat;
    entry.wall_ms =
        std::chrono::duration<double, std::milli>(stop - start).count();
    entry.cells = run.cells.size();
    entry.failed_cells = run.failed_cells;
    entry.threads = config.ResolvedThreads();
    for (std::size_t m = 0; m < grid.methods.size(); ++m) {
      const runner::MethodAggregate aggregate = run.Aggregate(grid, m);
      BenchReport::MethodSummary summary;
      summary.name = grid.methods[m];
      summary.mean_measured_energy = aggregate.measured_energy.count() > 0
                                         ? aggregate.measured_energy.mean()
                                         : 0.0;
      summary.mean_improvement = aggregate.improvement.count() > 0
                                     ? aggregate.improvement.mean()
                                     : 0.0;
      entry.methods.push_back(std::move(summary));
    }
    config.report->entries.push_back(std::move(entry));
    config.report->total_wall_ms +=
        config.report->entries.back().wall_ms;

    if (repeat == 0) {
      result = std::move(run);
    }
  }
  return result;
}

runner::GridResult RunGridTimed(const runner::ExperimentGrid& grid,
                                const SweepConfig& config, std::string label) {
  return RunGridTimed(grid, core::MethodRegistry::Builtin(), config,
                      std::move(label));
}

namespace {

/// Shared shape of the two list parsers: split, trim empties, convert each
/// entry with `convert` (which must consume the whole field), require a
/// finite value > 0.
template <typename T, typename Convert>
std::vector<T> ParsePositiveList(const std::string& flag,
                                 const std::string& text, Convert convert) {
  std::vector<T> values;
  for (const std::string& part : util::Split(text, ',')) {
    if (part.empty()) {
      continue;
    }
    T value{};
    std::size_t consumed = 0;
    try {
      value = convert(part, &consumed);
    } catch (const std::exception&) {  // stoi/stod invalid or out of range
      throw util::InvalidArgumentError("--" + flag +
                                       " entries must be positive numbers, "
                                       "got \"" + part + "\"");
    }
    ACS_REQUIRE(consumed == part.size() && value > T{0} &&
                    std::isfinite(static_cast<double>(value)),
                "--" + flag + " entries must be positive numbers, got \"" +
                    part + "\"");
    values.push_back(value);
  }
  ACS_REQUIRE(!values.empty(), "--" + flag + " must name at least one value");
  return values;
}

}  // namespace

std::vector<int> ParsePositiveIntList(const std::string& flag,
                                      const std::string& text) {
  return ParsePositiveList<int>(
      flag, text,
      [](const std::string& part, std::size_t* consumed) {
        return std::stoi(part, consumed);
      });
}

std::vector<double> ParsePositiveDoubleList(const std::string& flag,
                                            const std::string& text) {
  return ParsePositiveList<double>(
      flag, text,
      [](const std::string& part, std::size_t* consumed) {
        return std::stod(part, consumed);
      });
}

std::size_t FirstNonBaseline(const runner::ExperimentGrid& grid) {
  const std::size_t baseline = grid.BaselineIndex();
  for (std::size_t m = 0; m < grid.methods.size(); ++m) {
    if (m != baseline) {
      return m;
    }
  }
  throw util::InvalidArgumentError(
      "the grid needs at least one non-baseline method to report an "
      "improvement");
}

SweepPoint Collapse(const runner::ExperimentGrid& grid,
                    const runner::GridResult& result) {
  SweepPoint point;
  point.failed_cells = result.failed_cells;
  point.methods = grid.methods;

  const std::size_t reported = FirstNonBaseline(grid);
  for (std::size_t m = 0; m < grid.methods.size(); ++m) {
    const runner::MethodAggregate aggregate = result.Aggregate(grid, m);
    point.method_energy.push_back(aggregate.measured_energy);
    point.method_improvement.push_back(aggregate.improvement);
    point.total_misses += aggregate.deadline_misses;
    point.fallbacks += aggregate.fallbacks;
    if (m == reported) {
      point.improvement = aggregate.improvement;
    }
  }
  return point;
}

SweepPoint RunRandomSweep(int num_tasks, double ratio,
                          const SweepConfig& config,
                          const model::DvsModel& dvs) {
  workload::RandomTaskSetOptions gen;
  gen.num_tasks = num_tasks;
  gen.bcec_wcec_ratio = ratio;

  const std::uint64_t label =
      static_cast<std::uint64_t>(num_tasks) * 1000003ULL +
      static_cast<std::uint64_t>(ratio * 1e6);
  const std::string source_label = "random-" + std::to_string(num_tasks) +
                                   "-r" + util::FormatDouble(ratio, 2);
  runner::ExperimentGrid grid = config.MakeGrid(
      dvs, {runner::RandomSource(source_label, gen, config.tasksets)}, label);
  return Collapse(grid, RunGridTimed(grid, config, source_label));
}

SweepPoint RunFixedSetSweep(const model::TaskSet& set, std::string label,
                            const SweepConfig& config,
                            const model::DvsModel& dvs) {
  const std::string grid_label = label;
  runner::ExperimentGrid grid =
      config.MakeGrid(dvs, {runner::FixedSource(std::move(label), set)});
  grid.workload_seeds.clear();
  for (std::int64_t i = 0; i < config.seeds; ++i) {
    grid.workload_seeds.push_back(static_cast<std::uint64_t>(i));
  }
  return Collapse(grid, RunGridTimed(grid, config, grid_label));
}

void Emit(const util::TextTable& table, const util::CsvTable& csv,
          const std::string& csv_path) {
  std::cout << table.Render() << std::flush;
  if (!csv_path.empty()) {
    csv.WriteFile(csv_path);
    std::cout << "csv written to " << csv_path << "\n";
  }
}

void Emit(const util::TextTable& table, const util::CsvTable& csv,
          const SweepConfig& config) {
  Emit(table, csv, config.csv);
  config.WriteBenchJson();
  config.WriteRunArtifacts();
}

}  // namespace dvs::bench
