// Umbrella header: the public API of the ACS reproduction in one include.
//
//   #include "core/api.h"
//
//   using namespace dvs;
//   model::LinearDvsModel cpu = workload::DefaultModel();
//   model::TaskSet set = ...;
//   core::ComparisonResult r = core::CompareAcsWcs(set, cpu, {});
//
// Layering (see DESIGN.md): util <- stats <- model <- {fps, opt} <- sim <-
// core <- workload <- mp <- runner.  Downstream users normally need only
// this header plus the workload builders they care about; parallel
// experiment grids additionally include runner/run_grid.h, and partitioned
// multi-core experiments mp/fleet.h.
#ifndef ACS_CORE_API_H
#define ACS_CORE_API_H

#include "core/case_analysis.h"
#include "core/eval_workspace.h"
#include "core/formulation.h"
#include "core/method_registry.h"
#include "core/pipeline.h"
#include "core/scheduler.h"
#include "fps/expansion.h"
#include "model/power_model.h"
#include "model/task.h"
#include "model/workload.h"
#include "sim/engine.h"
#include "sim/policy.h"
#include "sim/static_schedule.h"
#include "sim/trace.h"
#include "stats/rng.h"

#endif  // ACS_CORE_API_H
