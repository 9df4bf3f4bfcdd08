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
#ifndef ACS_BENCH_BENCH_COMMON_H
#define ACS_BENCH_BENCH_COMMON_H

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
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

struct SweepConfig {
  std::int64_t tasksets = 8;        // random sets per grid point (paper: 100)
  std::int64_t hyper_periods = 150; // simulated hyper-periods (paper: 1000)
  std::int64_t seeds = 5;           // workload repetitions for fixed sets
  std::uint64_t seed = 20050307;    // master seed (DATE'05 week, for fun)
  std::int64_t threads = 1;         // worker threads for grid sweeps
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
  /// Sigma-axis warm-start policy of the planning arms (--warm-start):
  /// "off" keeps the pre-warm-start byte-identical solves, "neighbor"
  /// chains each cell's solve along the sigma-axis prefix (continuation —
  /// see runner::ExperimentGrid::warm_start).
  std::string warm_start = "off";
  /// Appends the opt-in solver iteration/evaluation columns to --cell-csv
  /// rows (--csv-solver-stats); the legacy schema is untouched without it.
  bool csv_solver_stats = false;
  /// Leakage-aware DPM layer (--dpm): sleep states across break-even idle
  /// intervals, a critical-speed dispatch floor and cross-hyper-period core
  /// reallocation.  Off keeps every bench byte-identical to the pre-DPM
  /// tree.  Enabling it also adds the DPM ledger columns to --cell-csv.
  bool dpm = false;
  /// Sleep-state preset (--sleep-state): ideal | shallow | deep, resolved
  /// against the bench's idle floor by dpm::ResolveSleepState.
  std::string sleep_state = "deep";
  /// Critical-speed floor request (--critical-speed): 0 derives it from the
  /// model and idle floor, > 0 forces that fraction of top speed, < 0
  /// disables the floor (see dpm::Options::critical_speed).
  double critical_speed = 0.0;
  /// Disables the cross-hyper-period reallocation pass (--dpm-no-realloc);
  /// on by default under --dpm.
  bool dpm_no_realloc = false;
  /// Hyper-periods run on the original partition before the consolidated
  /// one takes over (--realloc-after).
  std::int64_t realloc_after = 1;
  bool paper = false;               // restore the paper's full scale
  std::string csv;                  // optional CSV output path (aggregates)
  std::string cell_csv;             // optional per-cell streaming CSV path
  /// Machine-readable timing/energy summary path (--bench-json); empty
  /// disables the report.
  std::string bench_json;
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
  /// Times each grid this many times (--grid-repeats): repeat 0 is the
  /// result-bearing run, later repeats re-run the identical grid against
  /// warm workspaces purely for the --bench-json timing trajectory.
  std::int64_t grid_repeats = 1;
  /// Streaming sink RunOpts attaches to every grid run; set by
  /// OpenCellSink (benches can also point it at their own ResultSink).
  runner::ResultSink* sink = nullptr;
  /// Accumulated --bench-json entries (shared so the const sweep helpers
  /// can append).
  std::shared_ptr<BenchReport> report = std::make_shared<BenchReport>();
  /// Per-worker evaluation workspaces, persistent across this config's
  /// grid runs (the warm state --grid-repeats measures).
  std::shared_ptr<std::vector<core::EvalWorkspace>> workspaces =
      std::make_shared<std::vector<core::EvalWorkspace>>();
  /// Bench binary name for the report header; captured by Register().
  std::string program;
  /// Telemetry backing the flags above (shared so const copies of the
  /// config reference one process-global installation).
  std::shared_ptr<TelemetryState> telemetry =
      std::make_shared<TelemetryState>();
  /// The open --cache-dir store (null without the flag); created by
  /// Finalize(), written back by WriteRunArtifacts().
  std::shared_ptr<core::SolveStore> solve_store;

  /// Registers the shared flags on a parser.
  void Register(util::ArgParser& parser);

  /// Applies --paper (tasksets=100, hyper_periods=1000, seeds=20) and
  /// installs the telemetry the flags ask for — call before the first grid
  /// run so every worker thread sees it.
  void Finalize();

  /// Opens the --cell-csv streaming sink (null when the flag is unset) and
  /// points `sink` at it so every subsequent grid run streams one row per
  /// (cell, method).  The caller owns the returned sink and keeps it alive
  /// across its RunGrid calls — discarding it would leave `sink` dangling,
  /// hence nodiscard.
  [[nodiscard]] std::unique_ptr<runner::CsvSink> OpenCellSink();

  /// `methods` split on commas (empty fields dropped).
  std::vector<std::string> MethodList() const;

  /// `scenarios` split on commas (empty fields dropped).
  std::vector<std::string> ScenarioList() const;

  /// True when ScenarioList() is anything but the default {"iid-normal"} —
  /// the trigger for the --cell-csv scenario column.
  bool SweepsScenarios() const;

  /// `warm_start` parsed; throws InvalidArgumentError on unknown text.
  core::WarmStartPolicy WarmStartPolicy() const;

  /// The DPM options the --dpm flags describe, resolved against `idle` (the
  /// bench's per-core floor): sleep preset, critical-speed request,
  /// reallocation knobs.  `enabled` mirrors --dpm, so benches can assign
  /// the result to ExperimentGrid::dpm unconditionally.
  dvs::dpm::Options DpmOptions(const model::IdlePower& idle) const;

  /// Worker count after resolving 0 to the hardware thread count.
  std::int64_t ResolvedThreads() const;

  /// Grid seeded and scaled from this config, with the given sources.
  runner::ExperimentGrid MakeGrid(const model::DvsModel& dvs,
                                  std::vector<runner::TaskSetSource> sources,
                                  std::uint64_t grid_label = 0) const;

  runner::RunOptions RunOpts() const;

  /// Writes the accumulated BenchReport to `bench_json` (no-op when the
  /// flag is unset).  Emit() calls this; benches with custom epilogues can
  /// call it directly.
  void WriteBenchJson() const;

  /// Writes the telemetry artifacts the flags configured: the Chrome trace
  /// (--trace-out), the run manifest (--manifest-out), flushes the
  /// convergence JSONL, and prints the aggregated metrics when --metrics is
  /// set.  Emit() calls this after WriteBenchJson; benches with custom
  /// epilogues call it directly.
  void WriteRunArtifacts() const;
};

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

/// Same for strictly positive doubles (--sigmas style flags).
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
