#include "runner/golden_grids.h"

#include "workload/presets.h"
#include "workload/random_taskset.h"

namespace dvs::runner {

model::TaskSet TinyFixedSet(const model::DvsModel& dvs) {
  // {name, period, WCEC, ACEC, BCEC}
  return workload::ScaleToUtilization(
      {{"a", 10, 8.0, 5.0, 2.0}, {"b", 20, 12.0, 8.0, 4.0}}, dvs, 0.6);
}

ExperimentGrid GoldenSmokeGrid(const model::DvsModel& dvs) {
  workload::RandomTaskSetOptions gen;
  gen.num_tasks = 2;
  gen.bcec_wcec_ratio = 0.3;
  gen.max_sub_instances = 24;

  ExperimentGrid grid;
  grid.dvs = &dvs;
  grid.sources = {RandomSource("random-2", gen, 2),
                  FixedSource("tiny-fixed", TinyFixedSet(dvs))};
  grid.sigma_divisors = {6.0, 10.0};
  grid.workload_seeds = {0, 1};
  grid.methods = {"acs", "wcs", "static-vmax"};
  grid.hyper_periods = 10;
  grid.master_seed = 7;
  return grid;
}

ExperimentGrid GoldenPlanningGrid(const model::DvsModel& dvs) {
  workload::RandomTaskSetOptions gen;
  gen.num_tasks = 3;
  gen.bcec_wcec_ratio = 0.3;
  gen.max_sub_instances = 24;

  ExperimentGrid grid;
  grid.dvs = &dvs;
  grid.sources = {RandomSource("random-3", gen, 1),
                  FixedSource("tiny-fixed", TinyFixedSet(dvs))};
  grid.scenarios = {"iid-normal", "heavy-tail", "bimodal"};
  grid.methods = {"acs", "acs-scenario", "acs-mixture", "wcs"};
  grid.baseline = "acs";
  grid.planning.calibration_samples = 256;
  grid.planning.mixture_samples = 4;
  grid.hyper_periods = 10;
  grid.master_seed = 11;
  return grid;
}

}  // namespace dvs::runner
