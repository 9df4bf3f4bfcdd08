// Shared experiment-harness code for the figure/table reproduction benches.
//
// Every bench binary follows the same pattern: parse scale flags (defaults
// give a minutes-scale run; --paper restores the paper's 100 task sets x
// 1000 hyper-periods), sweep the paper's parameter grid, print the figure's
// series as an aligned table, and drop a CSV twin next to the binary.
//
// Grid sweeps route through runner::RunGrid: --threads fans cells across a
// thread pool (bit-identical to the serial run), and --methods selects any
// comma-separated subset of the core::MethodRegistry by name.
//
// This file is the only definition of the grid flags and the run plumbing
// (telemetry, solve store, cell sink, manifest, trace): the benches and
// tools/shard_grid register them from here, and CI fails when a flag name
// is registered twice under bench/ or tools/.
#ifndef ACS_BENCH_BENCH_COMMON_H
#define ACS_BENCH_BENCH_COMMON_H

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/eval_workspace.h"
#include "core/pipeline.h"
#include "dpm/dpm.h"
#include "model/power_model.h"
#include "model/task.h"
#include "runner/csv_sink.h"
#include "runner/experiment_grid.h"
#include "runner/run_grid.h"
#include "stats/summary.h"
#include "util/cli.h"
#include "util/csv.h"
#include "util/json.h"
#include "util/table.h"

namespace dvs::core {
class SolveStore;
}  // namespace dvs::core

namespace dvs::obs {
class ConvergenceRecorder;
class MetricsRegistry;
class TraceRecorder;
}  // namespace dvs::obs

namespace dvs::bench {

/// Process-global telemetry owned by a bench run (see src/obs): created and
/// installed by SweepConfig::Finalize() when the telemetry flags ask for
/// it, uninstalled by the destructor.  Observation-only — results and CSVs
/// are byte-identical with any combination enabled.
struct TelemetryState {
  TelemetryState();
  ~TelemetryState();
  TelemetryState(const TelemetryState&) = delete;
  TelemetryState& operator=(const TelemetryState&) = delete;

  std::unique_ptr<obs::MetricsRegistry> metrics;
  std::unique_ptr<obs::TraceRecorder> trace;
  std::unique_ptr<obs::ConvergenceRecorder> convergence;
};

/// Machine-readable run record accumulated across a bench's grids and
/// written by --bench-json: one entry per (grid, repeat) with wall-clock
/// timing and per-method energy aggregates.  Repeat 0 runs with whatever
/// workspace state the process has ("cold" on the first grid); repeats > 0
/// re-run the identical grid against the now-warm per-thread workspaces, so
/// the cold/warm delta is the workspace reuse win (--grid-repeats).
struct BenchReport {
  struct MethodSummary {
    std::string name;
    double mean_measured_energy = 0.0;
    double mean_improvement = 0.0;  // vs the grid baseline; 0 for itself
  };
  struct Entry {
    std::string label;
    std::int64_t repeat = 0;
    double wall_ms = 0.0;
    std::size_t cells = 0;
    std::size_t failed_cells = 0;
    std::int64_t threads = 1;
    std::vector<MethodSummary> methods;
  };

  std::vector<Entry> entries;
  double total_wall_ms = 0.0;
};

/// A run's identity as two flat key/value maps, keyed by flag name with
/// '-' spelled '_'.  `config` holds every flag that can change a result;
/// `execution` holds the ones that cannot (worker threads, timing repeats,
/// output paths, the cache directory, the shard slot), so shards run with
/// different settings still merge.
struct RunRecord {
  std::vector<std::pair<std::string, std::string>> config;
  std::vector<std::pair<std::string, std::string>> execution;
};

/// Writes `record` as the "config" and "execution" objects of an open JSON
/// object (the --bench-json reports).
void WriteRecordJson(util::JsonWriter& json, const RunRecord& record);

struct SweepConfig {
  // ---- Grid knobs (Register) ----
  std::int64_t tasksets = 8;        // random sets per grid point (paper: 100)
  std::int64_t hyper_periods = 150; // simulated hyper-periods (paper: 1000)
  std::int64_t seeds = 5;           // workload repetitions for fixed sets
  std::uint64_t seed = 20050307;    // master seed (DATE'05 week, for fun)
  std::string methods = "acs,wcs";  // registry methods, comma-separated
  std::string baseline = "wcs";     // improvement reference method
  /// Execution-time scenario axis (--scenarios), comma-separated
  /// workload::ScenarioRegistry names.  The default keeps every bench on
  /// the paper's i.i.d. truncated normal — and its CSVs byte-identical to
  /// the pre-scenario tree; any other value adds a "scenario" column to
  /// --cell-csv output (see runner::CsvSink).
  std::string scenarios = "iid-normal";
  /// Scenario-conditioned planning knobs (--mixture-samples,
  /// --calibration-samples), read only by the arms that plan at a
  /// calibrated point.
  core::PlanningOptions planning;
  /// Online expected-case dispatch + drift replanning knobs
  /// (--online-dp-bins, --drift-ewma, --drift-threshold), read only by the
  /// acs-online / acs-online-drift arms.
  core::OnlineOptions online;
  /// Leakage-aware DPM layer (--dpm, registered by FleetFlags): sleep
  /// states across break-even idle intervals, a critical-speed dispatch
  /// floor and cross-hyper-period core reallocation.  Off keeps every
  /// bench byte-identical to the pre-DPM tree.  Enabling it also adds the
  /// DPM ledger columns to --cell-csv.
  bool dpm = false;
  bool paper = false;               // restore the paper's full scale
  std::string csv;                  // optional CSV output path (aggregates)

  // ---- Run settings (RegisterRunSettings) ----
  std::int64_t threads = 1;         // worker threads for grid sweeps
  std::string cell_csv;             // optional per-cell streaming CSV path
  /// Appends the opt-in solver iteration/evaluation columns to --cell-csv
  /// rows (--csv-solver-stats); the legacy schema is untouched without it.
  bool csv_solver_stats = false;
  /// Sigma-axis warm-start policy of the planning arms (--warm-start):
  /// "off" keeps the pre-warm-start byte-identical solves, "neighbor"
  /// chains each cell's solve along the sigma-axis prefix (continuation —
  /// see runner::ExperimentGrid::warm_start).
  std::string warm_start = "off";
  /// Machine-readable timing/energy summary path (--bench-json); empty
  /// disables the report.
  std::string bench_json;
  /// Times each grid this many times (--grid-repeats): repeat 0 is the
  /// result-bearing run, later repeats re-run the identical grid against
  /// warm workspaces purely for the --bench-json timing trajectory.
  std::int64_t grid_repeats = 1;
  /// Telemetry artifacts (src/obs).  --trace-out writes a Chrome
  /// trace_event JSON (chrome://tracing / Perfetto), --convergence-out a
  /// per-iteration solver JSONL, --manifest-out a run manifest; --metrics
  /// collects and prints the aggregated counters even without a manifest.
  std::string trace_out;
  std::string manifest_out;
  std::string convergence_out;
  bool metrics = false;
  /// Persistent cross-run solve cache directory (--cache-dir): Finalize()
  /// opens a core::SolveStore there (creating the directory), every grid
  /// run pre-seeds from and absorbs into it, and WriteRunArtifacts()
  /// writes it back to disk.  Empty disables persistence.  Results and
  /// CSVs are byte-identical with or without a cache.
  std::string cache_dir;
  /// Opens --cache-dir read-only (--cache-read-only): pre-seed without
  /// taking the writer LOCK or writing back — the shared-cache flow for
  /// concurrent shards (see tools/shard_grid).
  bool cache_read_only = false;
  /// The shard of the grid this process runs (RunOptions::shard_index /
  /// shard_count); flags of tools/shard_grid only.  Finalize() rejects a
  /// slot outside [0, shard_count) before it opens anything.
  std::int64_t shard_index = 0;
  std::int64_t shard_count = 1;

  // ---- State ----
  /// The --cell-csv sink every grid run streams to (null without the
  /// flag); opened by Finalize().
  std::shared_ptr<runner::CsvSink> cell_sink;
  /// Accumulated --bench-json entries (shared so the const sweep helpers
  /// can append).
  std::shared_ptr<BenchReport> report = std::make_shared<BenchReport>();
  /// Per-worker evaluation workspaces, persistent across this config's
  /// grid runs (the warm state --grid-repeats measures).
  std::shared_ptr<std::vector<core::EvalWorkspace>> workspaces =
      std::make_shared<std::vector<core::EvalWorkspace>>();
  /// Bench binary name for the report header; captured by registration.
  std::string program;
  /// The parser the flags were registered on; Record() reads every flag
  /// of it, so it must outlive the config's Write* calls.
  const util::ArgParser* flag_parser = nullptr;
  /// Telemetry backing the flags above (shared so const copies of the
  /// config reference one process-global installation).
  std::shared_ptr<TelemetryState> telemetry =
      std::make_shared<TelemetryState>();
  /// The open --cache-dir store (null without the flag); created by
  /// Finalize(), written back by WriteRunArtifacts().
  std::shared_ptr<core::SolveStore> solve_store;

  /// Registers the grid knobs and the run settings on a parser.
  void Register(util::ArgParser& parser);

  /// Registers only the run settings (threads, outputs, telemetry, cache,
  /// warm start) — for a tool that runs a fixed grid.
  void RegisterRunSettings(util::ArgParser& parser);

  /// Applies --paper (tasksets=100, hyper_periods=1000, seeds=20), checks
  /// the shard slot and --warm-start, then installs the telemetry the flags
  /// ask for, opens the --cache-dir store and the --cell-csv sink — call
  /// before the first grid run so every worker thread sees them.
  void Finalize();

  /// `methods` split on commas (empty fields dropped).
  std::vector<std::string> MethodList() const;

  /// `scenarios` split on commas (empty fields dropped).
  std::vector<std::string> ScenarioList() const;

  /// True when ScenarioList() is anything but the default {"iid-normal"} —
  /// the trigger for the --cell-csv scenario column.
  bool SweepsScenarios() const;

  /// `warm_start` parsed; throws InvalidArgumentError on unknown text.
  core::WarmStartPolicy WarmStartPolicy() const;

  /// Worker count after resolving 0 to the hardware thread count.
  std::int64_t ResolvedThreads() const;

  /// Grid seeded and scaled from this config, with the given sources.
  runner::ExperimentGrid MakeGrid(const model::DvsModel& dvs,
                                  std::vector<runner::TaskSetSource> sources,
                                  std::uint64_t grid_label = 0) const;

  runner::RunOptions RunOpts() const;

  /// Every registered flag's current value, split into result-affecting
  /// `config` and result-neutral `execution` (see RunRecord).  The run
  /// manifest and the --bench-json report both record this.
  RunRecord Record() const;

  /// Writes the accumulated BenchReport to `bench_json` (no-op when the
  /// flag is unset).  Emit() calls this; benches with custom epilogues can
  /// call it directly.
  void WriteBenchJson() const;

  /// Writes the telemetry artifacts the flags configured: the Chrome trace
  /// (--trace-out, pid = the shard index), the run manifest
  /// (--manifest-out), flushes the convergence JSONL, and prints the
  /// aggregated metrics when --metrics is set.  Emit() calls this after
  /// WriteBenchJson; benches with custom epilogues call it directly.
  void WriteRunArtifacts() const;
};

/// The flag group of the benches that sweep random task sets per core
/// count (bench_mp_partition, bench_dpm_sleep, bench_scenario_sweep,
/// bench_scenario_planning, bench_online_adaptive).  Each bench sets its
/// defaults before Register(); a list left empty is not registered, and
/// --idle-power, --per-core-utilization and the DPM flags come with
/// --cores.
struct FleetFlags {
  std::string cores;               // --cores: comma-separated core counts
  std::string partitioners;        // --partitioners: mp partitioner names
  std::string sigmas;              // --sigmas: sigma divisors
  double idle_power = 0.05;        // --idle-power: energy/ms per core
  double per_core_utilization = 0.7;  // --per-core-utilization
  /// DPM knobs, read when --dpm (SweepConfig::dpm) is on: the sleep-state
  /// preset (--sleep-state: ideal | shallow | deep), the critical-speed
  /// floor request (--critical-speed; see dpm::Options::critical_speed),
  /// --dpm-no-realloc and --realloc-after.
  std::string sleep_state = "deep";
  double critical_speed = 0.0;
  bool dpm_no_realloc = false;
  std::int64_t realloc_after = 1;

  /// Registers --replicates (an alias of config.tasksets) and the flags
  /// above that the bench gave a default; --dpm sets config.dpm.
  void Register(util::ArgParser& parser, SweepConfig& config);

  /// Sets `grid`'s idle floor (--idle-power) and its DPM layer: enabled
  /// with config.dpm, the sleep preset resolved against the idle floor.
  void Apply(const SweepConfig& config, runner::ExperimentGrid& grid) const;

  std::vector<int> CoreCounts() const;
  std::vector<std::string> PartitionerList() const;  // empty fields dropped
  std::vector<double> SigmaList() const;

  /// The per-core-count random source: max(6, 3m) tasks at BCEC/WCEC ratio
  /// 0.3, worst-case utilisation per_core_utilization x m, 350
  /// sub-instances (per-core scale, pro-rata for m > 1), label
  /// "random-m<m>".
  runner::TaskSetSource Source(int m, std::int64_t tasksets) const;
};

/// Runs `grid` (whose `scenarios` is the full scenario list) split by sigma
/// sensitivity: scenarios whose UsesSigmaDivisor() is true sweep `sigmas`
/// under `label`; the rest would compute byte-identical duplicate cells per
/// sigma (and double-count them), so they run in a sibling grid pinned at
/// sigmas.front() under `label` + "-fixed-sigma".  Both grids share the
/// master seed and sources, hence the same SetIndex-keyed streams, so the
/// scenario columns stay paired across the split.  `visit` sees every cell
/// of both grids, in run order, with the index of its scenario in
/// `grid.scenarios`.
void RunScenarioSplit(
    const runner::ExperimentGrid& grid, const std::vector<double>& sigmas,
    const SweepConfig& config, const std::string& label,
    const std::function<void(const runner::CellResult&, std::size_t)>& visit);

/// Runs `grid` through runner::RunGrid `config.grid_repeats` times against
/// the config's persistent per-worker workspaces, recording one timed
/// BenchReport entry per repeat under `label`; returns the first repeat's
/// result (bit-identical to a plain RunGrid call).
runner::GridResult RunGridTimed(const runner::ExperimentGrid& grid,
                                const core::MethodRegistry& registry,
                                const SweepConfig& config, std::string label);

/// Same, against the built-in registry.
runner::GridResult RunGridTimed(const runner::ExperimentGrid& grid,
                                const SweepConfig& config, std::string label);

/// The per-(scenario, arm) rows of the planning and online sweeps: runs
/// RunScenarioSplit on `grid` (one core count, `m`, under label
/// "cores-<m>") and appends one row per (scenario, method) to `table` and
/// `csv`: mean fleet power (energy/ms), the paired improvement over the
/// grid baseline (mean; stddev in the CSV) and over the `reference` arm
/// (n/a when the sweep lacks it), deadline misses and failed cells.
void AppendArmRows(const runner::ExperimentGrid& grid, int m,
                   const std::vector<double>& sigmas,
                   const SweepConfig& config, const std::string& reference,
                   util::TextTable& table, util::CsvTable& csv);

struct SweepPoint {
  stats::OnlineStats improvement;   // first non-baseline method vs baseline
  std::int64_t total_misses = 0;    // across all methods (must stay 0)
  std::int64_t fallbacks = 0;       // scheduler warm-start fallbacks
  std::size_t failed_cells = 0;     // infeasible draws skipped

  /// Per-method aggregates in grid-method order.
  std::vector<std::string> methods;
  std::vector<stats::OnlineStats> method_energy;
  std::vector<stats::OnlineStats> method_improvement;  // vs baseline
};

/// Parses a comma-separated list of strictly positive integers (--cores
/// style flags).  Rejects empty lists, non-numeric entries, trailing junk
/// ("4x") and non-positive values, wrapping every failure in
/// util::InvalidArgumentError naming `flag`.
std::vector<int> ParsePositiveIntList(const std::string& flag,
                                      const std::string& text);

/// Same for strictly positive, finite doubles (--sigmas style flags).
std::vector<double> ParsePositiveDoubleList(const std::string& flag,
                                            const std::string& text);

/// Index of the first grid method that is not the baseline — the method the
/// benches' "improvement" column reports.  Throws InvalidArgumentError when
/// every grid method is the baseline.
std::size_t FirstNonBaseline(const runner::ExperimentGrid& grid);

/// Collapses a grid run into the legacy sweep-point shape.
SweepPoint Collapse(const runner::ExperimentGrid& grid,
                    const runner::GridResult& result);

/// Fig. 6 (left): aggregates `config.tasksets` random task sets with
/// `num_tasks` tasks at the given BCEC/WCEC ratio through runner::RunGrid.
/// The source label carries both sweep coordinates (e.g. "random-6-r0.1")
/// so --cell-csv rows from different grids stay attributable.
SweepPoint RunRandomSweep(int num_tasks, double ratio,
                          const SweepConfig& config,
                          const model::DvsModel& dvs);

/// Fig. 6 (right): aggregates `config.seeds` workload streams on one fixed
/// task set through runner::RunGrid.  `label` names the sweep point in
/// --cell-csv rows (benches running several grids must make it unique,
/// e.g. "cnc-r0.1").
SweepPoint RunFixedSetSweep(const model::TaskSet& set, std::string label,
                            const SweepConfig& config,
                            const model::DvsModel& dvs);

/// Standard epilogue: prints the table, optionally writes the CSV.
void Emit(const util::TextTable& table, const util::CsvTable& csv,
          const std::string& csv_path);

/// Same, plus the --bench-json report when configured.
void Emit(const util::TextTable& table, const util::CsvTable& csv,
          const SweepConfig& config);

}  // namespace dvs::bench

#endif  // ACS_BENCH_BENCH_COMMON_H
