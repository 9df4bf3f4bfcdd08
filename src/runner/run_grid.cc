#include "runner/run_grid.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>

#include "core/solve_store.h"
#include "dpm/dpm.h"
#include "fps/expansion.h"
#include "mp/fleet.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runner/thread_pool.h"
#include "util/error.h"
#include "util/logging.h"

namespace dvs::runner {
namespace {

CellResult RunCell(const ExperimentGrid& grid, const model::DvsModel& dvs,
                   const std::vector<const core::ScheduleMethod*>& methods,
                   std::size_t cell_index, core::EvalWorkspace& workspace) {
  CellResult cell;
  cell.coord = grid.Coord(cell_index);
  // Telemetry: the cell span/labels scope every nested solve/simulate
  // record to this cell, and the wall histogram feeds cell.wall_us.
  const double sigma = grid.sigma_divisors[cell.coord.sigma_index];
  const std::string& scenario_name =
      grid.scenarios[cell.coord.scenario_index];
  obs::RunContext run_context;
  run_context.cell = static_cast<std::int64_t>(cell_index);
  run_context.set = static_cast<std::int64_t>(grid.SetIndex(cell.coord));
  run_context.scenario = scenario_name.c_str();
  run_context.sigma = sigma;
  const obs::ScopedRunContext context_scope(run_context);
  obs::ScopedWallTimer cell_timer(obs::metric::kCellWallUs);
  obs::Span span("cell", "grid");
  if (span.enabled()) {
    span.Arg("cell", static_cast<std::int64_t>(cell_index));
    span.Arg("set", run_context.set);
    span.Arg("scenario", scenario_name);
    span.Arg("sigma", sigma);
  }
  try {
    const ExperimentGrid::CellStreams streams = grid.Streams(cell.coord);
    const model::TaskSet set = grid.MaterializeTaskSet(cell.coord);
    cell.hyper_period = set.hyper_period();

    core::ExperimentOptions options;
    options.hyper_periods = grid.hyper_periods;
    options.sigma_divisor = grid.sigma_divisors[cell.coord.sigma_index];
    options.seed = streams.workload_seed;
    options.transition = grid.transition;
    // The cell's execution-time process; the registry entry outlives the
    // grid run, and mp's per-core option copies carry the pointer along.
    options.scenario =
        &grid.Scenarios().Get(grid.scenarios[cell.coord.scenario_index]);
    options.scenario_key = scenario_name;
    options.planning = grid.planning;
    options.online = grid.online;
    options.dpm = grid.dpm;
    if (grid.warm_start == core::WarmStartPolicy::kNeighbor) {
      // The cell's continuation chain: the sigma-axis prefix through its
      // own divisor, in axis order (see core::WarmStartPolicy::kNeighbor).
      options.sigma_chain.assign(
          grid.sigma_divisors.begin(),
          grid.sigma_divisors.begin() + cell.coord.sigma_index + 1);
    }

    if (!grid.MultiCore()) {
      // Single-core grid: the original per-cell pipeline, bit-identical to
      // the pre-mp runner.  The workspace caches the expansion and the
      // WCS / ACS / Vmax-ASAP solves per task set, so cells differing only
      // on the sigma / workload-seed axes skip straight to simulation —
      // and every method still faces the identical workload realisation,
      // drawn once per cell by core::EvaluateMethods.  (Cache
      // hits depend on which worker ran the sibling cell, but the solves
      // are deterministic, so results never do.)
      core::EvalWorkspace::PreparedCell& prep = workspace.Prepare(set, dvs);
      cell.sub_instances = prep.fps.sub_count();
      core::MethodContext context(prep.fps, dvs, workspace, prep.solves);
      cell.outcomes = core::EvaluateMethods(methods, context, options);
    } else {
      // Multi-core grid: partition, then per-core pipelines; outcomes are
      // fleet figures in energy-per-ms units (mp/fleet.h) for every cell,
      // m = 1 included, so a mixed cores axis compares in one unit.  Each
      // core's subset is prepared in the workspace by content, so cells
      // that put the same tasks on some core share its solves.
      const int cores = grid.core_counts[cell.coord.core_index];
      const mp::Partitioner& partitioner = grid.Partitioners().Get(
          grid.partitioners[cell.coord.partitioner_index]);
      const mp::FleetResult fleet =
          mp::EvaluateFleet(set, dvs, partitioner, cores, methods, options,
                            grid.idle_power, &workspace);
      cell.sub_instances = fleet.sub_instances;
      cell.outcomes.reserve(methods.size());
      for (const mp::FleetOutcome& outcome : fleet.outcomes) {
        cell.outcomes.push_back(outcome.fleet);
      }
    }
  } catch (const util::Error& error) {
    cell.outcomes.clear();
    cell.sub_instances = 0;
    cell.hyper_period = 0;  // the documented failed-cell contract
    cell.error = error.what();
    ACS_LOG_WARN << "grid cell " << cell_index << " failed: " << cell.error;
  }
  // Result-charged counters, replayed from the outcomes: identical at any
  // thread count because the outcomes themselves are.
  if (cell.ok()) {
    obs::Count(obs::metric::kCellsEvaluated);
    bool solved = false;
    double max_violation = 0.0;
    for (const core::MethodOutcome& outcome : cell.outcomes) {
      solved = solved || outcome.solver_evaluations > 0;
      max_violation = std::max(max_violation, outcome.solver_max_violation);
      obs::Count(obs::metric::kSolverOuter, outcome.solver_outer_iterations);
      obs::Count(obs::metric::kSolverInner, outcome.solver_inner_iterations);
      obs::Count(obs::metric::kSolverEvals, outcome.solver_evaluations);
      obs::Count(obs::metric::kSolverInnerCapped, outcome.solver_inner_capped);
      obs::Count(obs::metric::kDeadlineMisses, outcome.deadline_misses);
      if (outcome.used_fallback) {
        obs::Count(obs::metric::kFallbacks);
      }
    }
    if (solved) {
      obs::Observe(obs::metric::kSolverFinalViolation, max_violation);
    }
  } else {
    obs::Count(obs::metric::kCellsFailed);
  }
  if (span.enabled()) {
    span.Arg("ok", cell.ok() ? "true" : "false");
  }
  return cell;
}

/// Family-scheduling telemetry, charged on shard 0 after the workers have
/// joined (the quiescent phase, so no ScopedMetricsShard is needed).
void MetricsShardObserveFamilyStats(obs::MetricsRegistry& metrics,
                                    const FamilyStats& stats) {
  metrics.Shard(0).Count(obs::metric::kFamilySteals,
                         static_cast<std::int64_t>(stats.steals));
  for (const std::size_t cells : stats.cells_per_worker) {
    metrics.Shard(0).Observe(obs::metric::kFamilyCellsPerWorker,
                             static_cast<double>(cells));
  }
}

}  // namespace

double CellResult::ImprovementOver(std::size_t method_index,
                                   std::size_t baseline_index) const {
  return core::ImprovementRatio(outcomes.at(baseline_index).measured_energy,
                                outcomes.at(method_index).measured_energy);
}

MethodAggregate GridResult::Aggregate(const ExperimentGrid& grid,
                                      std::size_t method_index,
                                      std::int64_t source_index) const {
  const std::size_t baseline = grid.BaselineIndex();
  MethodAggregate aggregate;
  for (const CellResult& cell : cells) {
    if (cell.skipped || !cell.ok()) {
      continue;
    }
    if (source_index >= 0 &&
        cell.coord.source != static_cast<std::size_t>(source_index)) {
      continue;
    }
    const core::MethodOutcome& outcome = cell.outcomes.at(method_index);
    aggregate.measured_energy.Add(outcome.measured_energy);
    if (method_index != baseline) {
      // Degenerate ratios (zero/non-finite baseline — core::ImprovementRatio)
      // are excluded rather than allowed to poison the running mean.
      const double improvement = cell.ImprovementOver(method_index, baseline);
      if (std::isfinite(improvement)) {
        aggregate.improvement.Add(improvement);
      }
    }
    aggregate.deadline_misses += outcome.deadline_misses;
    aggregate.fallbacks += outcome.used_fallback ? 1 : 0;
  }
  return aggregate;
}

GridResult RunGrid(const ExperimentGrid& grid,
                   const core::MethodRegistry& registry,
                   const RunOptions& options) {
  grid.Validate(registry);
  ACS_REQUIRE(options.shard_count >= 1, "shard count must be at least 1");
  ACS_REQUIRE(options.shard_index < options.shard_count,
              "shard index must be below the shard count");

  std::vector<const core::ScheduleMethod*> methods;
  methods.reserve(grid.methods.size());
  for (const std::string& name : grid.methods) {
    methods.push_back(&registry.Get(name));
  }

  // The DPM critical-speed floor, resolved once against the grid's idle
  // floor: when it binds, every cell evaluates under the base model rebuilt
  // with vmin raised (dpm::FlooredModel).
  dpm::Options dpm_options = grid.dpm;
  dpm_options.idle = grid.idle_power;
  const std::unique_ptr<const model::DvsModel> floored =
      dpm::FlooredModel(*grid.dvs, dpm_options);
  const model::DvsModel& dvs = floored != nullptr ? *floored : *grid.dvs;

  const std::size_t cell_count = grid.CellCount();
  GridResult result;
  result.cells.resize(cell_count);

  // The shard's SetIndex ownership window (the whole grid when unsharded).
  const std::size_t set_count = grid.SetCount();
  const std::size_t set_begin =
      options.shard_index * set_count / options.shard_count;
  const std::size_t set_end =
      (options.shard_index + 1) * set_count / options.shard_count;

  ThreadPool pool(options.threads);
  ACS_LOG_INFO << "RunGrid: " << cell_count << " cells x "
               << grid.methods.size() << " methods on " << pool.size()
               << " threads"
               << (options.shard_count > 1
                       ? " (shard " + std::to_string(options.shard_index) +
                             "/" + std::to_string(options.shard_count) + ")"
                       : "");

  // Telemetry: one metrics shard per worker (sized before any worker runs,
  // so the hot path never grows the shard vector), run-layout gauges on
  // shard 0, and the whole-grid span.  All observation-only.
  obs::MetricsRegistry* const metrics = obs::ActiveMetrics();
  if (metrics != nullptr) {
    metrics->EnsureShards(static_cast<std::size_t>(pool.size()));
    metrics->Shard(0).SetGauge(obs::metric::kThreads,
                               static_cast<double>(pool.size()));
    metrics->Shard(0).SetGauge(obs::metric::kShardCount,
                               static_cast<double>(options.shard_count));
  }
  obs::Span grid_span("grid", "grid");
  if (grid_span.enabled()) {
    grid_span.Arg("cells", static_cast<std::int64_t>(cell_count));
    grid_span.Arg("methods", static_cast<std::int64_t>(grid.methods.size()));
    grid_span.Arg("threads", static_cast<std::int64_t>(pool.size()));
    grid_span.Arg("shard", static_cast<std::int64_t>(options.shard_index));
    grid_span.Arg("shard_count",
                  static_cast<std::int64_t>(options.shard_count));
  }

  // One evaluation workspace per worker: caller-provided ones stay warm
  // across grids (bench --grid-repeats, the CI cold/warm timing step),
  // call-local ones still amortise buffers across this grid's cells.
  std::vector<core::EvalWorkspace> local_workspaces;
  std::vector<core::EvalWorkspace>& workspaces =
      options.workspaces != nullptr ? *options.workspaces : local_workspaces;
  if (workspaces.size() < static_cast<std::size_t>(pool.size())) {
    workspaces.resize(static_cast<std::size_t>(pool.size()));
  }
  // Attach (or detach) the persistent store on every workspace — set
  // unconditionally so a workspace vector reused across RunGrid calls can
  // never keep a stale store pointer alive.
  for (core::EvalWorkspace& workspace : workspaces) {
    workspace.set_solve_store(options.solve_store);
  }

  // Cache-affinity handout: pre-mark the out-of-window cells serially, then
  // schedule whole families onto workers so each task set's solves stay on
  // one worker's cache.
  {
    const obs::ScopedMetricsShard shard_scope(
        metrics != nullptr ? &metrics->Shard(0) : nullptr);
    for (std::size_t cell_index = 0; cell_index < cell_count; ++cell_index) {
      const CellCoord coord = grid.Coord(cell_index);
      const std::size_t set_index = grid.SetIndex(coord);
      if (set_index < set_begin || set_index >= set_end) {
        result.cells[cell_index].coord = coord;
        result.cells[cell_index].skipped = true;
        obs::Count(obs::metric::kCellsSkipped);
      }
    }
  }
  // One family per in-window SetIndex: each set owns one contiguous run of
  // cell indices of the same length (ExperimentGrid::SetCount).
  const std::size_t cells_per_set = set_count > 0 ? cell_count / set_count : 0;
  std::vector<std::pair<std::size_t, std::size_t>> ranges;
  ranges.reserve(set_end - set_begin);
  for (std::size_t set_index = set_begin; set_index < set_end; ++set_index) {
    ranges.emplace_back(set_index * cells_per_set,
                        (set_index + 1) * cells_per_set);
  }
  if (metrics != nullptr) {
    metrics->Shard(0).SetGauge(obs::metric::kFamilyCount,
                               static_cast<double>(ranges.size()));
  }
  const FamilyStats stats = pool.ParallelForFamilies(
      ranges, [&](std::size_t worker, std::size_t cell_index) {
        const obs::ScopedMetricsShard shard_scope(
            metrics != nullptr ? &metrics->Shard(worker) : nullptr);
        CellResult& cell = result.cells[cell_index];
        cell = RunCell(grid, dvs, methods, cell_index, workspaces[worker]);
        if (options.sink != nullptr) {
          options.sink->OnCell(grid, cell);
        }
      });
  if (metrics != nullptr) {
    MetricsShardObserveFamilyStats(*metrics, stats);
  }

  // Flush every workspace's resident solves into the persistent store (the
  // evicted ones were absorbed on the way out); write-back to disk is the
  // caller's call, after however many grids it runs against the store.
  if (options.solve_store != nullptr) {
    for (const core::EvalWorkspace& workspace : workspaces) {
      workspace.AbsorbInto(*options.solve_store);
    }
  }

  for (const CellResult& cell : result.cells) {
    result.failed_cells += (!cell.skipped && !cell.ok()) ? 1 : 0;
  }
  return result;
}

GridResult RunGrid(const ExperimentGrid& grid, const RunOptions& options) {
  return RunGrid(grid, core::MethodRegistry::Builtin(), options);
}

}  // namespace dvs::runner
