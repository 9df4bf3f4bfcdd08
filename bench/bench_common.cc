#include "bench_common.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <iostream>
#include <set>
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
#include "workload/scenario.h"

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
  parser.AddInt("tasksets", &tasksets,
                "random task sets per grid point");
  parser.AddInt("hyper-periods", &hyper_periods,
                "simulated hyper-periods per run");
  parser.AddInt("seeds", &seeds, "workload streams for fixed task sets");
  parser.AddInt("seed", reinterpret_cast<std::int64_t*>(&seed),
                "master random seed");
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
  parser.AddFlag("paper", &paper,
                 "paper scale: 100 task sets, 1000 hyper-periods");
  parser.AddString("csv", &csv, "write results to this CSV file");
  RegisterRunSettings(parser);
}

void SweepConfig::RegisterRunSettings(util::ArgParser& parser) {
  program = parser.program();
  flag_parser = &parser;
  parser.AddInt("threads", &threads,
                "worker threads for grid sweeps (0 = all hardware threads)");
  parser.AddString("cell-csv", &cell_csv,
                   "stream one row per (cell, method) to this CSV file");
  parser.AddFlag("csv-solver-stats", &csv_solver_stats,
                 "append solver iteration/evaluation columns to --cell-csv "
                 "rows");
  parser.AddString("warm-start", &warm_start,
                   "sigma-axis warm-start policy for the planning arms: "
                   "off | neighbor");
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
                   "missing; one writer per directory — concurrent shards "
                   "need --cache-read-only or their own directories)");
  parser.AddFlag("cache-read-only", &cache_read_only,
                 "open --cache-dir read-only: pre-seed solves without "
                 "locking or writing back (shared-cache shard flow)");
}

void SweepConfig::Finalize() {
  if (paper) {
    tasksets = 100;
    hyper_periods = 1000;
    seeds = 20;
  }
  // Reject bad input before anything is created on disk.
  if (shard_count < 1 || shard_index < 0 || shard_index >= shard_count) {
    throw util::InvalidArgumentError(
        "--shard must lie in [0, --shard-count) and --shard-count must be "
        "at least 1");
  }
  WarmStartPolicy();
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
  // The writable open throws on a held LOCK — two writers on one cache
  // directory fail here, before any cell runs.
  if (!cache_dir.empty() && solve_store == nullptr) {
    solve_store = std::make_shared<core::SolveStore>(cache_dir,
                                                     cache_read_only);
  }
  if (!cell_csv.empty() && cell_sink == nullptr) {
    cell_sink = std::make_shared<runner::CsvSink>(
        cell_csv, SweepsScenarios(), csv_solver_stats, dpm);
  }
}

namespace {

/// `text` split on commas, empty fields dropped.
std::vector<std::string> NameList(const std::string& text) {
  std::vector<std::string> list;
  for (std::string& name : util::Split(text, ',')) {
    if (!name.empty()) {
      list.push_back(std::move(name));
    }
  }
  return list;
}

}  // namespace

std::vector<std::string> SweepConfig::MethodList() const {
  std::vector<std::string> list = NameList(methods);
  if (list.empty()) {
    throw util::InvalidArgumentError("--methods must name at least one method");
  }
  return list;
}

std::vector<std::string> SweepConfig::ScenarioList() const {
  std::vector<std::string> list = NameList(scenarios);
  if (list.empty()) {
    throw util::InvalidArgumentError(
        "--scenarios must name at least one scenario");
  }
  return list;
}

bool SweepConfig::SweepsScenarios() const {
  const std::vector<std::string> list = ScenarioList();
  return list.size() != 1 || list.front() != "iid-normal";
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
  options.sink = cell_sink.get();
  options.workspaces = workspaces.get();
  options.solve_store = solve_store.get();
  options.shard_index = static_cast<std::size_t>(shard_index);
  options.shard_count = static_cast<std::size_t>(shard_count);
  return options;
}

RunRecord SweepConfig::Record() const {
  // Flags that cannot change a result.  --warm-start and --csv-solver-stats
  // are run settings too, but they change solves or the CSV schema.
  static const std::set<std::string> kExecution = {
      "threads",     "grid-repeats",    "csv",
      "cell-csv",    "bench-json",      "trace-out",
      "manifest-out", "convergence-out", "metrics",
      "cache-dir",   "cache-read-only", "shard",
      "shard-count"};
  RunRecord record;
  if (flag_parser == nullptr) {
    return record;
  }
  for (auto& [name, value] : flag_parser->Values()) {
    std::string key = name;
    std::replace(key.begin(), key.end(), '-', '_');
    (kExecution.count(name) > 0 ? record.execution : record.config)
        .emplace_back(std::move(key), std::move(value));
  }
  return record;
}

void WriteRecordJson(util::JsonWriter& json, const RunRecord& record) {
  for (const auto* section : {&record.config, &record.execution}) {
    json.Key(section == &record.config ? "config" : "execution")
        .BeginObject();
    for (const auto& [key, value] : *section) {
      json.Key(key).Value(value);
    }
    json.EndObject();
  }
}

void SweepConfig::WriteBenchJson() const {
  if (bench_json.empty()) {
    return;
  }
  util::JsonWriter json;
  json.BeginObject();
  json.Key("bench").Value(program);
  WriteRecordJson(json, Record());
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
    telemetry->trace->WriteChromeTrace(trace_out,
                                       static_cast<std::uint32_t>(shard_index));
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
    manifest.shard_index = static_cast<std::size_t>(shard_index);
    manifest.shard_count = static_cast<std::size_t>(shard_count);
    RunRecord record = Record();
    manifest.config = std::move(record.config);
    manifest.execution = std::move(record.execution);
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
    const auto bad = [&] {
      return util::InvalidArgumentError(
          "--" + flag + " entries must be positive numbers, got \"" + part +
          "\"");
    };
    T value{};
    std::size_t consumed = 0;
    try {
      value = convert(part, &consumed);
    } catch (const std::exception&) {  // stoi/stod invalid or out of range
      throw bad();
    }
    if (consumed != part.size() || !(value > T{0}) ||
        !std::isfinite(static_cast<double>(value))) {
      throw bad();
    }
    values.push_back(value);
  }
  if (values.empty()) {
    throw util::InvalidArgumentError("--" + flag +
                                     " must name at least one value");
  }
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

void FleetFlags::Register(util::ArgParser& parser, SweepConfig& config) {
  parser.AddInt("replicates", &config.tasksets,
                "random task sets per grid point (alias of --tasksets)");
  if (!cores.empty()) {
    parser.AddString("cores", &cores, "comma-separated core counts");
    parser.AddDouble("idle-power", &idle_power,
                     "always-on energy/ms floor per powered core");
    parser.AddDouble("per-core-utilization", &per_core_utilization,
                     "worst-case utilisation target per core");
    parser.AddFlag("dpm", &config.dpm,
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
                  "hyper-periods before the consolidated partition takes "
                  "over");
  }
  if (!partitioners.empty()) {
    parser.AddString("partitioners", &partitioners,
                     "comma-separated mp partitioners");
  }
  if (!sigmas.empty()) {
    parser.AddString("sigmas", &sigmas,
                     "comma-separated sigma divisors (sigma-insensitive "
                     "scenarios such as heavy-tail and trace run once, at "
                     "the first value)");
  }
}

void FleetFlags::Apply(const SweepConfig& config,
                       runner::ExperimentGrid& grid) const {
  grid.idle_power.power_per_ms = idle_power;
  grid.dpm.enabled = config.dpm;
  grid.dpm.idle = grid.idle_power;
  grid.dpm.sleep = dvs::dpm::ResolveSleepState(sleep_state, grid.idle_power);
  grid.dpm.critical_speed = critical_speed;
  grid.dpm.reallocate = !dpm_no_realloc;
  grid.dpm.realloc_after = realloc_after;
}

std::vector<int> FleetFlags::CoreCounts() const {
  return ParsePositiveIntList("cores", cores);
}

std::vector<std::string> FleetFlags::PartitionerList() const {
  return NameList(partitioners);
}

std::vector<double> FleetFlags::SigmaList() const {
  return ParsePositiveDoubleList("sigmas", sigmas);
}

runner::TaskSetSource FleetFlags::Source(int m, std::int64_t tasksets) const {
  workload::RandomTaskSetOptions gen;
  gen.num_tasks = std::max(6, 3 * m);
  gen.bcec_wcec_ratio = 0.3;
  gen.utilization = per_core_utilization * static_cast<double>(m);
  gen.max_sub_instances = 350;
  return runner::RandomSource("random-m" + std::to_string(m), gen, tasksets);
}

void RunScenarioSplit(
    const runner::ExperimentGrid& grid, const std::vector<double>& sigmas,
    const SweepConfig& config, const std::string& label,
    const std::function<void(const runner::CellResult&, std::size_t)>& visit) {
  std::vector<std::string> sigma_scenarios;
  std::vector<std::string> fixed_scenarios;
  for (const std::string& name : grid.scenarios) {
    (grid.Scenarios().Get(name).UsesSigmaDivisor() ? sigma_scenarios
                                                   : fixed_scenarios)
        .push_back(name);
  }
  const auto run_subset = [&](std::vector<std::string> subset,
                              std::vector<double> sigma_axis,
                              const std::string& subset_label) {
    if (subset.empty()) {
      return;
    }
    runner::ExperimentGrid sub = grid;
    sub.scenarios = std::move(subset);
    sub.sigma_divisors = std::move(sigma_axis);
    const runner::GridResult result = RunGridTimed(sub, config, subset_label);
    for (const runner::CellResult& cell : result.cells) {
      const std::string& name = sub.scenarios[cell.coord.scenario_index];
      visit(cell, static_cast<std::size_t>(
                      std::find(grid.scenarios.begin(), grid.scenarios.end(),
                                name) -
                      grid.scenarios.begin()));
    }
  };
  run_subset(std::move(sigma_scenarios), sigmas, label);
  run_subset(std::move(fixed_scenarios), {sigmas.front()},
             label + "-fixed-sigma");
}

void AppendArmRows(const runner::ExperimentGrid& grid, int m,
                   const std::vector<double>& sigmas,
                   const SweepConfig& config, const std::string& reference,
                   util::TextTable& table, util::CsvTable& csv) {
  const std::size_t base_index = grid.BaselineIndex();
  // The reference column is contextual: without that arm in the sweep it
  // reports n/a instead of silently re-labelling some other arm.
  const std::size_t ref_index = static_cast<std::size_t>(
      std::find(grid.methods.begin(), grid.methods.end(), reference) -
      grid.methods.begin());
  const bool has_ref_arm = ref_index < grid.methods.size();
  struct ArmAgg {
    stats::OnlineStats power;
    stats::OnlineStats vs_base;
    stats::OnlineStats vs_ref;
    std::int64_t misses = 0;
    std::size_t failed = 0;
  };
  std::vector<std::vector<ArmAgg>> aggs(
      grid.scenarios.size(), std::vector<ArmAgg>(grid.methods.size()));
  RunScenarioSplit(
      grid, sigmas, config, "cores-" + std::to_string(m),
      [&](const runner::CellResult& cell, std::size_t s) {
        for (std::size_t i = 0; i < grid.methods.size(); ++i) {
          ArmAgg& agg = aggs[s][i];
          if (!cell.ok()) {
            ++agg.failed;
            continue;
          }
          double power = cell.outcomes[i].measured_energy;
          if (!grid.MultiCore()) {
            power /= static_cast<double>(cell.hyper_period);
          }
          agg.power.Add(power);
          agg.vs_base.Add(cell.ImprovementOver(i, base_index));
          if (has_ref_arm) {
            agg.vs_ref.Add(cell.ImprovementOver(i, ref_index));
          }
          agg.misses += cell.outcomes[i].deadline_misses;
        }
      });

  for (std::size_t s = 0; s < grid.scenarios.size(); ++s) {
    for (std::size_t i = 0; i < grid.methods.size(); ++i) {
      const ArmAgg& agg = aggs[s][i];
      const bool has_data = agg.power.count() > 0;
      const bool has_ref = agg.vs_ref.count() > 0;
      table.AddRow(
          {std::to_string(m), grid.scenarios[s], grid.methods[i],
           has_data ? util::FormatDouble(agg.power.mean(), 3) : "n/a",
           has_data ? util::FormatPercent(agg.vs_base.mean()) : "n/a",
           has_ref ? util::FormatPercent(agg.vs_ref.mean()) : "n/a",
           std::to_string(agg.misses), std::to_string(agg.failed)});
      csv.NewRow()
          .Add(m)
          .Add(grid.scenarios[s])
          .Add(grid.methods[i])
          .Add(has_data ? agg.power.mean() : 0.0, 6)
          .Add(has_data ? agg.vs_base.mean() : 0.0, 6)
          .Add(has_data ? agg.vs_base.stddev() : 0.0, 6)
          .Add(has_ref ? agg.vs_ref.mean() : 0.0, 6)
          .Add(agg.misses)
          .Add(agg.failed);
    }
  }
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
