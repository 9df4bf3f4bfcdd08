// Declarative experiment-grid descriptor.
//
// An ExperimentGrid is the cartesian product of
//
//   task-set sources x replicates x utilizations x core counts x
//   partitioners x scenarios x sigma divisors x seeds
//
// where every product point is one *cell*.  Within a cell the grid's
// registry methods are all evaluated on the same task set and identical
// workload realisations (the paper's fair-comparison methodology), so the
// method list is an inner dimension of the cell, not a cell axis — shared
// solves (WCS warm start, Vmax-ASAP) then amortise across methods through
// the core::MethodContext.
//
// Seeding: every cell derives its streams from the master seed and its own
// coordinates alone, so a cell's result is a pure function of the grid —
// execution order and thread count cannot change any bit of the output (see
// runner/run_grid.h and the runner determinism test).  The task-set stream
// is keyed by the *set index* — (source, replicate, utilization) only — so
// cells that differ purely in the core-count, partitioner, scenario, sigma
// or workload-seed axes draw bit-identical task sets and those axes compare
// paired, not across a seed lottery.  The scenario axis additionally shares
// the workload-seed derivation: scenarios compare on identical task sets
// AND identical seed labels, differing only in how the stream is
// transformed into per-job cycles (paired-draw seeding).
#ifndef ACS_RUNNER_EXPERIMENT_GRID_H
#define ACS_RUNNER_EXPERIMENT_GRID_H

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/method_registry.h"
#include "core/scheduler.h"
#include "dpm/options.h"
#include "model/power_model.h"
#include "model/task.h"
#include "mp/partitioner.h"
#include "stats/rng.h"
#include "workload/random_taskset.h"
#include "workload/scenario.h"

namespace dvs::runner {

/// One task-set axis entry: either a fixed (real-life) set replayed under
/// different workload streams, or a random-generator spec drawn `replicates`
/// times with independent per-cell streams.
struct TaskSetSource {
  std::string label;
  std::optional<model::TaskSet> fixed;
  workload::RandomTaskSetOptions random;  // used when !fixed
  std::int64_t replicates = 1;            // forced to 1 for fixed sets

  std::int64_t Replicates() const { return fixed.has_value() ? 1 : replicates; }
};

TaskSetSource FixedSource(std::string label, model::TaskSet set);
TaskSetSource RandomSource(std::string label,
                           const workload::RandomTaskSetOptions& options,
                           std::int64_t replicates);

/// Position of one cell in the grid (plus its flattened index).
struct CellCoord {
  std::size_t cell_index = 0;
  std::size_t source = 0;     // index into ExperimentGrid::sources
  std::int64_t replicate = 0; // 0 .. Replicates()-1
  std::size_t util_index = 0; // index into utilizations (0 when empty)
  std::size_t core_index = 0; // index into core_counts
  std::size_t partitioner_index = 0;  // index into partitioners
  std::size_t scenario_index = 0;     // index into scenarios
  std::size_t sigma_index = 0;
  std::size_t seed_index = 0; // index into workload_seeds
};

struct ExperimentGrid {
  /// The DVS model every cell evaluates under (non-owning; required; it
  /// must outlive the RunGrid call).  With the DPM critical-speed floor
  /// binding, RunGrid evaluates under dpm::FlooredModel(*dvs, dpm) instead;
  /// task sets are always drawn against `dvs` itself.
  const model::DvsModel* dvs = nullptr;
  std::vector<TaskSetSource> sources;
  /// Worst-case utilization overrides for random sources; empty keeps each
  /// source's own value.  Fixed sources ignore this axis.  With multi-core
  /// axes the values may reach (0, max core count): a cell's set is a fleet
  /// demand, partitioned before any per-core pipeline runs.
  std::vector<double> utilizations;
  /// Identical-multiprocessor axes (src/mp).  A cell whose core count
  /// exceeds 1 (or whose grid charges idle power) partitions its task set
  /// with the named mp partitioner and runs the per-core pipeline on every
  /// powered core; its MethodOutcomes are then *fleet* figures in energy-
  /// per-ms units (see mp/fleet.h).  The defaults keep single-core grids
  /// bit-identical to the pre-mp runner.
  std::vector<int> core_counts = {1};
  std::vector<std::string> partitioners = {"ffd"};
  /// Registry the partitioner names resolve against; null selects
  /// mp::PartitionerRegistry::Builtin().  Non-owning (like `dvs`): point it
  /// at a custom registry to plug experiment-specific strategies into the
  /// grid, mirroring how RunGrid takes a custom MethodRegistry.
  const mp::PartitionerRegistry* partitioner_registry = nullptr;
  /// Always-on per-powered-core power floor for multi-core cells.
  model::IdlePower idle_power;
  /// Leakage-aware DPM layer (sleep states, critical-speed floor,
  /// cross-hyper-period reallocation), applied to every cell.  Requires a
  /// non-zero idle_power when enabled (there is no floor to manage
  /// otherwise — Validate enforces it); dpm.idle itself is overwritten
  /// with `idle_power`, the grid's single source of truth for the floor.
  /// RunGrid realises dpm.critical_speed once per run by evaluating under
  /// dpm::FlooredModel (see `dvs`).
  dpm::Options dpm;
  /// Voltage-transition overhead charged in every cell's simulation.
  model::TransitionOverhead transition;
  /// Execution-time scenario axis (workload::ScenarioRegistry names).  The
  /// default single "iid-normal" entry keeps every grid bit-identical to
  /// the pre-scenario runner.  Cells differing only on this axis share both
  /// their task-set draw and their workload-seed label (see the header
  /// comment), so scenarios compare paired.
  std::vector<std::string> scenarios = {"iid-normal"};
  /// Registry the scenario names resolve against; null selects
  /// workload::ScenarioRegistry::Builtin().  Non-owning (like `dvs` and
  /// `partitioner_registry`): point it at a custom registry to sweep
  /// experiment-specific processes, e.g. a LoadTraceScenario recording.
  const workload::ScenarioRegistry* scenario_registry = nullptr;
  std::vector<double> sigma_divisors = {6.0};
  /// Warm-start policy of the scenario-conditioned planning arms.  kOff
  /// (default) keeps every cell byte-identical to the pre-warm-start
  /// runner; kNeighbor makes a cell at sigma index k solve the sigma-axis
  /// prefix chain [0..k] in order, each solve seeded from the previous
  /// converged schedule (continuation).  The chain is defined by grid
  /// coordinates alone, so determinism is unaffected; with a shared
  /// workspace, sigma-sibling cells reuse chain prefixes from the solve
  /// cache instead of re-solving them.
  core::WarmStartPolicy warm_start = core::WarmStartPolicy::kOff;
  /// Scenario-conditioned planning knobs (mixture size, calibration
  /// samples), applied to every cell; only the arms that plan at a
  /// calibrated point read them.  Not a grid axis: sweeping
  /// planning configurations is done by running sibling grids (the same
  /// master seed keeps their cells paired), exactly like the bench sweeps
  /// sigma-insensitive scenarios.
  core::PlanningOptions planning;
  /// Online expected-case dispatch + drift replanning knobs, applied to
  /// every cell; only the acs-online / acs-online-drift arms read them.
  core::OnlineOptions online;
  /// Workload-stream labels: each entry yields an independent realisation
  /// stream per cell (replaying fixed sets under `k` streams = `k` entries).
  std::vector<std::uint64_t> workload_seeds = {0};
  /// Registry method names evaluated per cell, e.g. {"acs", "wcs"}.
  std::vector<std::string> methods = {"acs", "wcs"};
  /// Improvement reference; must be listed in `methods`.
  std::string baseline = "wcs";
  std::int64_t hyper_periods = 200;
  std::uint64_t master_seed = 20050307;
  core::SchedulerOptions scheduler;

  std::size_t CellCount() const;
  CellCoord Coord(std::size_t cell_index) const;

  /// Number of distinct task-set draws: SetIndex(coord) ranges over
  /// [0, SetCount()).  Because (source, replicate, util) are the grid's
  /// outermost axes, each SetIndex owns one contiguous run of cell indices
  /// — the property the sharded runner splits on (runner::RunOptions).
  std::size_t SetCount() const;

  /// Index of `baseline` within `methods`.
  std::size_t BaselineIndex() const;

  /// True when the cores axis holds any entry above 1.  Deliberately
  /// narrower than MultiCore(): this is the trigger for *fleet-demand task
  /// set draws* (MaterializeTaskSet), while MultiCore() additionally fires
  /// on an idle-power floor alone — an idle-only grid takes the fleet
  /// execution path but must keep drawing the exact pre-mp single-core
  /// sets (the bit-compatibility guarantee).
  bool AnyCoreAboveOne() const;

  /// True when this grid's cells take the multi-core (partitioned fleet)
  /// path: AnyCoreAboveOne() or a non-zero idle-power floor.  The routing
  /// is per grid, not per cell, so a mixed cores axis reports every cell —
  /// m = 1 included — in the same fleet energy-per-ms units.
  bool MultiCore() const;

  /// The effective partitioner registry (`partitioner_registry` or the
  /// built-ins).
  const mp::PartitionerRegistry& Partitioners() const;

  /// The effective scenario registry (`scenario_registry` or the
  /// built-ins).
  const workload::ScenarioRegistry& Scenarios() const;

  /// Validates axes, resolves every method name against `registry` and
  /// every partitioner name against Partitioners(); throws
  /// InvalidArgumentError with the offending field on failure.
  void Validate(const core::MethodRegistry& registry) const;

  /// The independent per-cell stream: a pure function of (master_seed,
  /// cell_index).
  stats::Rng CellRng(std::size_t cell_index) const;

  /// Flattened index of the cell's task-set draw: (source, replicate,
  /// util_index) only.  Cells equal on those coordinates — however they
  /// differ on the core/partitioner/scenario/sigma/workload-seed axes —
  /// share it, and with it their task set.
  std::size_t SetIndex(const CellCoord& coord) const;

  /// The two streams one cell consumes, both keyed by SetIndex (the
  /// workload stream additionally by the cell's seed-axis label).
  struct CellStreams {
    stats::Rng set_rng;            // task-set generation
    std::uint64_t workload_seed;   // workload realisations
  };
  CellStreams Streams(const CellCoord& coord) const;

  /// Draws (random source) or copies (fixed source) the cell's task set —
  /// bit-identical to what RunGrid evaluates, so benches can recover any
  /// cell's input after the fact.
  model::TaskSet MaterializeTaskSet(const CellCoord& coord) const;
};

}  // namespace dvs::runner

#endif  // ACS_RUNNER_EXPERIMENT_GRID_H
