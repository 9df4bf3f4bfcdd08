// Parallel grid execution.
//
// RunGrid fans the grid's cells across a ThreadPool, one task-set family
// (the contiguous cell-index run of one SetIndex) at a time, handed out
// round-robin, so each task set's sibling cells — and therefore its cached
// solves — stay on one worker unless an idle worker steals the family.  Every cell is
// a pure function of (grid, cell_index): it derives its own rng stream,
// draws or copies its task set, and evaluates every grid method on
// identical workload realisations through a per-cell core::MethodContext.
// Results land in a vector slot owned by the cell, and aggregates are
// computed afterwards in cell order — so an 8-thread run is bit-identical
// to a 1-thread run, cell by cell and aggregate by aggregate.
//
// Cells of a multi-core grid (any core count > 1, or a non-zero idle-power
// floor — see ExperimentGrid::MultiCore) first partition the cell's task
// set with the grid's mp partitioner and then run the identical per-core
// pipeline on every powered core; their MethodOutcomes are fleet aggregates
// in energy-per-ms units (mp/fleet.h), for every cell of the grid so a
// mixed cores axis compares in one unit.
// The determinism guarantee is unchanged: partitioning is a pure function
// of the cell's task set and per-core workload streams are forked from the
// cell stream by physical core index.
//
// Cells that fail with a util::Error (infeasible set, generator exhaustion,
// a partitioner that cannot place a task) record the message in
// CellResult::error and do not abort the grid; any other exception
// propagates out of RunGrid.
#ifndef ACS_RUNNER_RUN_GRID_H
#define ACS_RUNNER_RUN_GRID_H

#include <cstdint>
#include <string>
#include <vector>

#include "core/eval_workspace.h"
#include "core/method_registry.h"
#include "runner/experiment_grid.h"
#include "stats/summary.h"

namespace dvs::core {
class SolveStore;  // core/solve_store.h
}  // namespace dvs::core

namespace dvs::runner {

/// Outcome of one grid cell: one MethodOutcome per grid method (in grid
/// method order), or an error message when the cell failed.
struct CellResult {
  CellCoord coord;
  /// True when a sharded run (RunOptions::shard_count > 1) assigned this
  /// cell to another shard: the cell was not evaluated, carries no
  /// outcomes and no error, and is excluded from aggregates, sinks and the
  /// failed-cell count.
  bool skipped = false;
  std::size_t sub_instances = 0;
  /// Hyper-period of the cell's (whole) task set — the per-hyper-period /
  /// per-ms unit conversion factor, recorded so consumers need not re-draw
  /// the set.  0 on failed cells.
  std::int64_t hyper_period = 0;
  std::vector<core::MethodOutcome> outcomes;
  std::string error;

  bool ok() const { return error.empty(); }

  /// The paper's metric generalised: (E_base - E_method) / E_base on
  /// measured energy.
  double ImprovementOver(std::size_t method_index,
                         std::size_t baseline_index) const;
};

/// Streaming observer: OnCell fires as each cell finishes, from whichever
/// worker thread ran it (implementations synchronise internally; completion
/// order is nondeterministic — anything order-sensitive belongs in the
/// post-hoc aggregates, which are deterministic).
class ResultSink {
 public:
  virtual ~ResultSink() = default;
  virtual void OnCell(const ExperimentGrid& grid, const CellResult& cell) = 0;
};

/// Deterministic per-method aggregate over the successful cells, merged in
/// cell order.
struct MethodAggregate {
  stats::OnlineStats measured_energy;
  stats::OnlineStats improvement;  // vs the grid baseline; empty for itself
  std::int64_t deadline_misses = 0;
  std::int64_t fallbacks = 0;
};

struct GridResult {
  std::vector<CellResult> cells;  // indexed by cell_index
  std::size_t failed_cells = 0;

  /// Aggregates `method_index` over all successful cells, or over one
  /// source's cells when `source_index` >= 0.
  MethodAggregate Aggregate(const ExperimentGrid& grid,
                            std::size_t method_index,
                            std::int64_t source_index = -1) const;
};

struct RunOptions {
  int threads = 1;              // <= 0 selects ThreadPool::HardwareThreads()
  ResultSink* sink = nullptr;   // optional streaming observer
  /// Per-worker evaluation workspaces (grown to the pool size if short).
  /// Passing the same vector across RunGrid calls keeps solver/sim buffers
  /// — and the per-task-set solve caches — warm between grids; results are
  /// bit-identical with or without it (cache hits are by content: the same
  /// task set, model parameters and scheduler options, so grids differing
  /// in any of them rebuild instead of reusing).  Null: RunGrid uses
  /// call-local workspaces.  Non-owning; must outlive the call.
  std::vector<core::EvalWorkspace>* workspaces = nullptr;
  /// Sharding: with shard_count N > 1, shard i of N evaluates only the
  /// cells whose SetIndex falls in [floor(i*S/N), floor((i+1)*S/N)) where
  /// S = grid.SetCount(); every other cell is returned with skipped set.
  /// Splitting on SetIndex (not cell_index) keeps each task set's solve
  /// cache — and a kNeighbor warm-start chain — entirely within one shard,
  /// so a sharded run performs no duplicate solves across processes and
  /// the concatenation of all shards' rows equals the unsharded run's
  /// row set exactly (see runner/shard.h for the CSV merge).
  std::size_t shard_index = 0;
  std::size_t shard_count = 1;
  /// Persistent cross-run solve cache (core/solve_store.h).  Attached to
  /// every worker workspace for the duration of the run: Prepare() misses
  /// pre-seed from it, evicted and resident entries are absorbed back into
  /// it when the run ends.  The caller owns the store and decides when to
  /// WriteBack().  Null disables persistence.  Results are bit-identical
  /// with or without it.
  core::SolveStore* solve_store = nullptr;
};

/// Runs every cell of `grid`, resolving methods against `registry`.
GridResult RunGrid(const ExperimentGrid& grid,
                   const core::MethodRegistry& registry,
                   const RunOptions& options = {});

/// Same, against the built-in registry.
GridResult RunGrid(const ExperimentGrid& grid, const RunOptions& options = {});

}  // namespace dvs::runner

#endif  // ACS_RUNNER_RUN_GRID_H
