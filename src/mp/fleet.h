// Per-core pipeline fan-out and fleet-energy aggregation.
//
// EvaluateFleet is the multi-core counterpart of core::EvaluateMethod: it
// partitions the task set, runs the unmodified offline+online pipeline —
// core::MethodContext, fps expansion, NLP solve, greedy simulation —
// independently on every powered core's subset, and folds the per-core
// results into one fleet outcome per method.
//
// Units: a core's MethodOutcome reports energy per *its own* hyper-period,
// and different cores generally have different hyper-periods, so fleet
// figures are normalised to energy per millisecond (average fleet power):
//
//   fleet = sum_c per_core_c / hyper_period_c  +  used_cores * idle.power
//
// The idle term is the always-on per-core floor of model::IdlePower; cores
// that received no task are assumed power-gated and cost nothing, which is
// what makes consolidating partitioners (ffd, energy-greedy with idle > 0)
// meaningfully different from load-balancing ones (wfd).
//
// With the DPM layer on (ExperimentOptions::dpm), the floor moves into the
// per-core simulation — which can then sleep through break-even idle
// intervals (model::SleepState) — and the mission optionally splits into
// two spans around a cross-hyper-period reallocation (dpm::Consolidate):
// the partitioner's assignment for the first realloc_after hyper-periods,
// the consolidated one for the rest, each span weighted by its share of the
// mission.  The fleet outcome then carries the idle/sleep energy breakdown,
// the migration count and a time-weighted powered-core tally.  DPM off
// keeps this file's aggregation byte-identical to the legacy pipeline.
//
// Determinism: core c's workload stream is Rng(options.seed).ForkWith(c),
// a pure function of the experiment seed and the physical core index, and
// every method sees the identical per-core streams — the paper's
// fair-comparison methodology, per core.  A post-reallocation span forks
// Rng(options.seed).ForkWith(span).ForkWith(c) — still a pure function of
// grid coordinates, never of execution order.
#ifndef ACS_MP_FLEET_H
#define ACS_MP_FLEET_H

#include <cstddef>
#include <vector>

#include "core/method_registry.h"
#include "core/pipeline.h"
#include "model/power_model.h"
#include "model/task.h"
#include "mp/partition.h"
#include "mp/partitioner.h"

namespace dvs::mp {

/// One method's fleet result: the aggregate (energy-per-ms units, see
/// above) plus the raw per-core outcomes (per-core-hyper-period units), in
/// powered-core order — under a reallocation split, the first span's cores
/// followed by the second's.
struct FleetOutcome {
  core::MethodOutcome fleet;
  std::vector<core::MethodOutcome> per_core;
};

struct FleetResult {
  Partition partition;
  std::size_t sub_instances = 0;  // summed over powered cores
  std::vector<FleetOutcome> outcomes;  // one per method, in method order

  /// (E_base - E_method) / E_base on fleet measured energy.
  double ImprovementOver(std::size_t method_index,
                         std::size_t baseline_index) const;
};

/// Partitions `set` onto `cores` cores with `partitioner` and evaluates
/// every method on every powered core.  Throws util::InfeasibleError when
/// the partitioner cannot place some task.  `workspace` (optional) is the
/// calling thread's core::EvalWorkspace: every per-core solve and
/// simulation then runs out of its reused buffers, and each core's subset
/// is prepared there by content — cells that assign the same tasks to some
/// core (different partitioners, core counts, sigma or workload seeds on
/// one draw) reuse the solves outright, and a core whose whole mission
/// (core::MissionKey: its options and the method list) repeats is served
/// from the prepared cell's memo without simulating.  Bit-identical
/// results and result-charged counters either way.
FleetResult EvaluateFleet(
    const model::TaskSet& set, const model::DvsModel& dvs,
    const Partitioner& partitioner, int cores,
    const std::vector<const core::ScheduleMethod*>& methods,
    const core::ExperimentOptions& options,
    const model::IdlePower& idle = {},
    core::EvalWorkspace* workspace = nullptr);

}  // namespace dvs::mp

#endif  // ACS_MP_FLEET_H
