// DPM (dynamic power management) configuration, threaded from the grid /
// ExperimentOptions down to the simulator and the fleet evaluator.
//
// Everything here is inert unless `enabled` is set: core::EvaluateMethod
// only copies the sleep/idle description into sim::SimOptions when enabled,
// and mp::EvaluateFleet only consolidates cores or charges the sim-level
// floor when enabled — the DPM-off paths stay byte-identical to the
// pre-DPM pipeline (pinned by the golden CSVs and prop_invariants_test).
//
// The critical-speed floor is a property of the model the whole run
// evaluates under, not of a single evaluation: runner::RunGrid resolves it
// once per run with dpm::FlooredModel (dpm/dpm.h) and evaluates every cell
// under the floored model.  Direct core / mp callers evaluate under the
// model they pass in.
#ifndef ACS_DPM_OPTIONS_H
#define ACS_DPM_OPTIONS_H

#include <cstdint>

#include "model/power_model.h"

namespace dvs::dpm {

struct Options {
  /// Master switch: off keeps every consumer on its legacy path.
  bool enabled = false;

  /// Awake per-core power floor the sleep state competes with.  The fleet
  /// evaluator overwrites it with its own idle-power argument so the
  /// simulator and the aggregation always agree on one floor; standalone
  /// core::EvaluateMethod callers fill it directly.
  model::IdlePower idle;

  /// The sleep state committed across break-even idle intervals (resolve a
  /// named preset with dpm::ResolveSleepState, or hand-build one).
  model::SleepState sleep;

  /// Critical-speed floor request, as a fraction of the model's top speed:
  /// 0 derives the critical speed from the model and the idle floor
  /// (dpm::CriticalSpeed), > 0 forces the given fraction, < 0 disables the
  /// floor entirely.  Consumed by dpm::FlooredModel — see the header
  /// comment for where it applies.
  double critical_speed = 0.0;

  /// Cross-hyper-period reallocation (core shutdown): after `realloc_after`
  /// hyper-periods mp::EvaluateFleet migrates tasks off the least-utilised
  /// cores (exact RM admission preserved) and runs the remaining
  /// hyper-periods on the consolidated partition.
  bool reallocate = false;
  std::int64_t realloc_after = 1;
};

}  // namespace dvs::dpm

#endif  // ACS_DPM_OPTIONS_H
