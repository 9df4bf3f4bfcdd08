// Pluggable task partitioners and their registry (mirrors
// core::MethodRegistry).
//
// A Partitioner statically assigns every task of a (possibly multi-core
// demand) TaskSet to one of `cores` identical cores such that every core's
// subset is RM-schedulable at Vmax — the admission test the per-core
// pipeline needs to even start.  Partitioning dominates the energy outcome
// of partitioned DVS (Huang et al., leakage-aware reallocation for periodic
// tasks on multicores), so the choice is a first-class experiment axis:
// grids select partitioners by name exactly like schedule methods.
//
// Built-ins (see PartitionerRegistry::Builtin):
//
//   ffd            first-fit decreasing by utilisation: densest packing,
//                  fewest powered cores (classical bin packing)
//   wfd            worst-fit decreasing: place each task on the least-loaded
//                  feasible core — load balancing, which under convex DVS
//                  power lets every core run slow
//   energy-greedy  place each task on the feasible core with the smallest
//                  *marginal convex-energy estimate*: the increase in
//                  constant-speed energy rate of serving the core's cycle
//                  demand under the model (speed = k * V), plus the
//                  idle-power floor when the placement powers a new core —
//                  leakage-aware consolidation vs. spread, decided per task
#ifndef ACS_MP_PARTITIONER_H
#define ACS_MP_PARTITIONER_H

#include <memory>
#include <string>
#include <vector>

#include "model/power_model.h"
#include "model/task.h"
#include "mp/partition.h"
#include "util/named_registry.h"

namespace dvs::mp {

/// One named partitioning strategy.  Implementations are stateless and
/// const: a single instance serves all threads (per-cell state, if any,
/// stays on the stack of Assign).
class Partitioner {
 public:
  virtual ~Partitioner() = default;

  /// Assigns every task of `set` to one of `cores` cores; each returned
  /// core subset passes the exact RM test at Vmax.  `idle` is the per-core
  /// always-on power floor — energy-aware strategies may weigh powering an
  /// additional core against loading an already-powered one; others ignore
  /// it.  Throws InfeasibleError when some task fits on no core.
  virtual Partition Assign(const model::TaskSet& set,
                           const model::DvsModel& dvs, int cores,
                           const model::IdlePower& idle) const = 0;
};

/// Name -> partitioner map: util::NamedRegistry with this domain's error
/// wording; same contract as core::MethodRegistry (populate before sharing
/// across threads, const lookups after).
class PartitionerRegistry : public util::NamedRegistry<Partitioner> {
 public:
  /// The immutable registry of built-ins listed above.
  static const PartitionerRegistry& Builtin();

  PartitionerRegistry()
      : NamedRegistry("partitioner", "partitioner", "partitioners") {}
};

/// Populates `registry` with the built-ins of PartitionerRegistry::Builtin.
void RegisterBuiltinPartitioners(PartitionerRegistry& registry);

/// Constant-speed energy rate (energy per ms) of one core serving a cycle
/// demand of `utilization` * MaxSpeed cycles/ms: the voltage that meets the
/// demand exactly (vmin when the demand undershoots the slowest speed), so
/// the rate is convex and increasing in the load.  The energy-greedy
/// partitioner's placement estimate; exposed for tests and analysis.
double CoreEnergyRate(const model::DvsModel& dvs, double utilization);

}  // namespace dvs::mp

#endif  // ACS_MP_PARTITIONER_H
