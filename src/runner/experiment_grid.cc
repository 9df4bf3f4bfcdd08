#include "runner/experiment_grid.h"

#include <algorithm>
#include <string>
#include <utility>

#include "util/error.h"

namespace dvs::runner {
namespace {

// Fixed sources ignore the utilization override, so the axis would only
// duplicate identical cells for them — it applies to random sources alone.
std::size_t UtilCells(const ExperimentGrid& grid, const TaskSetSource& source) {
  return (source.fixed.has_value() || grid.utilizations.empty())
             ? 1
             : grid.utilizations.size();
}

std::size_t InnerCells(const ExperimentGrid& grid,
                       const TaskSetSource& source) {
  return UtilCells(grid, source) * grid.core_counts.size() *
         grid.partitioners.size() * grid.scenarios.size() *
         grid.sigma_divisors.size() * grid.workload_seeds.size();
}

}  // namespace

TaskSetSource FixedSource(std::string label, model::TaskSet set) {
  TaskSetSource source;
  source.label = std::move(label);
  source.fixed = std::move(set);
  return source;
}

TaskSetSource RandomSource(std::string label,
                           const workload::RandomTaskSetOptions& options,
                           std::int64_t replicates) {
  TaskSetSource source;
  source.label = std::move(label);
  source.random = options;
  source.replicates = replicates;
  return source;
}

std::size_t ExperimentGrid::CellCount() const {
  std::size_t cells = 0;
  for (const TaskSetSource& source : sources) {
    cells += static_cast<std::size_t>(source.Replicates()) *
             InnerCells(*this, source);
  }
  return cells;
}

std::size_t ExperimentGrid::SetCount() const {
  std::size_t count = 0;
  for (const TaskSetSource& source : sources) {
    count += static_cast<std::size_t>(source.Replicates()) *
             UtilCells(*this, source);
  }
  return count;
}

CellCoord ExperimentGrid::Coord(std::size_t cell_index) const {
  ACS_REQUIRE(cell_index < CellCount(), "cell index out of range");
  CellCoord coord;
  coord.cell_index = cell_index;

  std::size_t remaining = cell_index;
  std::size_t inner = 0;
  for (std::size_t s = 0; s < sources.size(); ++s) {
    inner = InnerCells(*this, sources[s]);
    const std::size_t block =
        static_cast<std::size_t>(sources[s].Replicates()) * inner;
    if (remaining < block) {
      coord.source = s;
      break;
    }
    remaining -= block;
  }

  coord.replicate = static_cast<std::int64_t>(remaining / inner);
  remaining %= inner;

  const std::size_t utils = UtilCells(*this, sources[coord.source]);
  const std::size_t sigma_seed = sigma_divisors.size() * workload_seeds.size();
  const std::size_t scen_block = scenarios.size() * sigma_seed;
  const std::size_t part_block = partitioners.size() * scen_block;
  const std::size_t core_block = core_counts.size() * part_block;
  coord.util_index = remaining / core_block;
  remaining %= core_block;
  coord.core_index = remaining / part_block;
  remaining %= part_block;
  coord.partitioner_index = remaining / scen_block;
  remaining %= scen_block;
  coord.scenario_index = remaining / sigma_seed;
  remaining %= sigma_seed;
  coord.sigma_index = remaining / workload_seeds.size();
  coord.seed_index = remaining % workload_seeds.size();
  ACS_CHECK(coord.util_index < utils, "grid coordinate decode overflow");
  return coord;
}

const mp::PartitionerRegistry& ExperimentGrid::Partitioners() const {
  return partitioner_registry != nullptr ? *partitioner_registry
                                         : mp::PartitionerRegistry::Builtin();
}

const workload::ScenarioRegistry& ExperimentGrid::Scenarios() const {
  return scenario_registry != nullptr ? *scenario_registry
                                      : workload::ScenarioRegistry::Builtin();
}

bool ExperimentGrid::AnyCoreAboveOne() const {
  for (int cores : core_counts) {
    if (cores > 1) {
      return true;
    }
  }
  return false;
}

bool ExperimentGrid::MultiCore() const {
  return AnyCoreAboveOne() || !idle_power.IsZero();
}

std::size_t ExperimentGrid::BaselineIndex() const {
  for (std::size_t i = 0; i < methods.size(); ++i) {
    if (methods[i] == baseline) {
      return i;
    }
  }
  throw util::InvalidArgumentError("grid baseline \"" + baseline +
                                   "\" is not among the grid methods");
}

void ExperimentGrid::Validate(const core::MethodRegistry& registry) const {
  // Every check here guards a user setting, so a failure reports the setting
  // alone (no source location or C++ condition).
  const auto require = [](bool ok, const std::string& message) {
    if (!ok) {
      throw util::InvalidArgumentError(message);
    }
  };
  require(dvs != nullptr, "grid needs a DVS model");
  require(!sources.empty(), "grid needs at least one task-set source");
  require(!sigma_divisors.empty(), "grid needs a sigma divisor");
  require(!workload_seeds.empty(), "grid needs a workload seed");
  require(!methods.empty(), "grid needs at least one method");
  require(hyper_periods > 0, "grid hyper_periods must be positive");
  for (const TaskSetSource& source : sources) {
    require(source.fixed.has_value() || source.replicates > 0,
            "random source \"" + source.label +
                "\" needs a positive replicate count");
  }
  for (double divisor : sigma_divisors) {
    require(divisor > 0.0, "sigma divisors must be positive");
  }
  require(!core_counts.empty(), "grid needs a core count");
  int max_cores = 0;
  for (int cores : core_counts) {
    require(cores >= 1, "core counts must be at least 1");
    max_cores = std::max(max_cores, cores);
  }
  require(!partitioners.empty(), "grid needs a partitioner");
  for (const std::string& name : partitioners) {
    Partitioners().Get(name);  // throws, listing the registered names
  }
  require(!scenarios.empty(), "grid needs a workload scenario");
  for (const std::string& name : scenarios) {
    Scenarios().Get(name);  // throws, listing the registered names
  }
  require(planning.mixture_samples >= 1,
          "planning mixture size must be at least 1");
  require(planning.calibration_samples >= planning.mixture_samples &&
              planning.calibration_samples >= 2,
          "planning calibration samples must be >= max(2, mixture size)");
  require(idle_power.power_per_ms >= 0.0, "idle power must be non-negative");
  transition.Validate();
  online.Validate();
  if (dpm.enabled) {
    require(!idle_power.IsZero(),
            "DPM needs a non-zero idle power floor to manage");
    require(dpm.sleep.power_per_ms >= 0.0 &&
                dpm.sleep.enter_latency >= 0.0 &&
                dpm.sleep.exit_latency >= 0.0 &&
                dpm.sleep.enter_energy >= 0.0 &&
                dpm.sleep.exit_energy >= 0.0,
            "sleep-state fields must be non-negative");
    require(dpm.realloc_after >= 1,
            "realloc_after must be at least one hyper-period");
  }
  // A utilization must stay below the fleet's capacity; single-core grids
  // keep the paper's (0, 1) admission.
  for (double utilization : utilizations) {
    require(utilization > 0.0 && utilization < static_cast<double>(max_cores),
            "utilizations must lie in (0, max core count)");
  }
  for (const std::string& name : methods) {
    registry.Get(name);  // throws with the full method list on failure
  }
  BaselineIndex();  // throws when the baseline is missing
}

stats::Rng ExperimentGrid::CellRng(std::size_t cell_index) const {
  stats::Rng master(master_seed);
  return master.ForkWith(static_cast<std::uint64_t>(cell_index));
}

std::size_t ExperimentGrid::SetIndex(const CellCoord& coord) const {
  std::size_t offset = 0;
  for (std::size_t s = 0; s < coord.source; ++s) {
    offset += static_cast<std::size_t>(sources[s].Replicates()) *
              UtilCells(*this, sources[s]);
  }
  return offset +
         static_cast<std::size_t>(coord.replicate) *
             UtilCells(*this, sources[coord.source]) +
         coord.util_index;
}

ExperimentGrid::CellStreams ExperimentGrid::Streams(
    const CellCoord& coord) const {
  // Exactly the historical derivation (ForkWith(index), one Fork() for the
  // set stream, then the labelled workload fork), keyed by the reduced set
  // index: cells equal up to the core/partitioner/scenario/sigma/seed axes
  // share both streams, so those axes compare paired.  The scenario axis
  // deliberately does not perturb the derivation — scenario cells transform
  // the identical seed through different processes, the paired-draw
  // methodology.  Grids whose inner axes are all singletons have
  // SetIndex == cell_index and draw streams bit-identical to the pre-mp
  // runner.
  stats::Rng base_rng = CellRng(SetIndex(coord));
  stats::Rng set_rng = base_rng.Fork();
  const std::uint64_t workload_seed =
      base_rng.ForkWith(workload_seeds[coord.seed_index]).NextU64();
  return CellStreams{set_rng, workload_seed};
}

model::TaskSet ExperimentGrid::MaterializeTaskSet(
    const CellCoord& coord) const {
  const TaskSetSource& source = sources.at(coord.source);
  if (source.fixed.has_value()) {
    return *source.fixed;
  }
  ACS_REQUIRE(dvs != nullptr, "grid needs a DVS model");
  workload::RandomTaskSetOptions options = source.random;
  if (!utilizations.empty()) {
    options.utilization = utilizations[coord.util_index];
  }
  // Any multi-core cells in the grid make the draw a fleet demand: the
  // partitioner owns admission, and — because the flag is grid-level —
  // cells sharing a SetIndex keep bit-identical draws across the cores
  // axis, unbiased toward single-core-feasible sets.  (Deliberately
  // AnyCoreAboveOne, not MultiCore: see the header.)
  options.multi_core = options.multi_core || AnyCoreAboveOne();
  CellStreams streams = Streams(coord);
  return workload::GenerateRandomTaskSet(options, *dvs, streams.set_rng);
}

}  // namespace dvs::runner
