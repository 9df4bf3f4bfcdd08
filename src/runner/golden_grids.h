// The fixed grids behind the checked-in golden CSVs (tests/data/).
//
// One definition serves the golden-bytes tests, the telemetry and sharding
// tests that reuse the same grids, and tools/shard_grid, whose merged
// shards CI byte-compares against the same files — so no copy can drift
// out of step with another.
//
//   GoldenSmokeGrid     tests/data/golden_smoke_grid.csv: the legacy
//                       default-pipeline grid (acs / wcs / static-vmax);
//   GoldenPlanningGrid  tests/data/golden_planning_grid.csv: the planning
//                       arms under three scenarios, scenario column on.
//
// Changing either grid changes its golden; regenerate deliberately with
// tests/data/regenerate_golden.sh.
#ifndef ACS_RUNNER_GOLDEN_GRIDS_H
#define ACS_RUNNER_GOLDEN_GRIDS_H

#include "model/power_model.h"
#include "model/task.h"
#include "runner/experiment_grid.h"

namespace dvs::runner {

/// The two-task fixed set of both golden grids, scaled to utilisation 0.6
/// under `dvs`.
model::TaskSet TinyFixedSet(const model::DvsModel& dvs);

/// Two random 2-task sets plus TinyFixedSet, sigma {6, 10} x workload
/// seeds {0, 1}, methods acs / wcs / static-vmax, 10 hyper-periods.
ExperimentGrid GoldenSmokeGrid(const model::DvsModel& dvs);

/// One random 3-task set plus TinyFixedSet under iid-normal / heavy-tail /
/// bimodal, methods acs / acs-scenario / acs-mixture / wcs against the acs
/// baseline, test-sized calibration, 10 hyper-periods.  Small enough to
/// solve serially in test time, wide enough that any drift in calibration,
/// planning-point threading, planned-solve caching or the mixture
/// objective changes some byte.
ExperimentGrid GoldenPlanningGrid(const model::DvsModel& dvs);

}  // namespace dvs::runner

#endif  // ACS_RUNNER_GOLDEN_GRIDS_H
