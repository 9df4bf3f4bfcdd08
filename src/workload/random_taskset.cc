#include "workload/random_taskset.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "fps/expansion.h"
#include "sim/engine.h"
#include "util/error.h"
#include "workload/presets.h"

namespace dvs::workload {

const std::vector<std::int64_t>& CandidatePeriods() {
  static const std::vector<std::int64_t> periods = {
      10, 20, 25, 40, 50, 100, 125, 200, 250, 500, 1000};
  return periods;
}

model::TaskSet GenerateRandomTaskSet(const RandomTaskSetOptions& options,
                                     const model::DvsModel& dvs,
                                     stats::Rng& rng) {
  ACS_REQUIRE(options.num_tasks >= 1, "need at least one task");
  ACS_REQUIRE(options.utilization > 0.0,
              "utilisation must be positive");
  ACS_REQUIRE(options.utilization < static_cast<double>(options.num_tasks),
              "utilisation must stay below the task count (each task must "
              "fit on one core)");

  const bool multi_core = options.multi_core || options.utilization >= 1.0;
  const std::size_t sub_cap =
      multi_core ? options.max_sub_instances *
                       static_cast<std::size_t>(
                           std::ceil(std::max(options.utilization, 1.0)))
                 : options.max_sub_instances;
  const std::vector<std::int64_t>& candidates = CandidatePeriods();

  for (int attempt = 0; attempt < options.max_attempts; ++attempt) {
    std::vector<model::Task> tasks;
    tasks.reserve(static_cast<std::size_t>(options.num_tasks));
    for (int i = 0; i < options.num_tasks; ++i) {
      model::Task task;
      task.name = "T" + std::to_string(i + 1);
      task.period = candidates[static_cast<std::size_t>(rng.UniformInt(
          0, static_cast<std::int64_t>(candidates.size()) - 1))];
      // Workload share before utilisation scaling: uniform weight, expressed
      // as cycles so longer-period tasks naturally carry more work.
      task.wcec = rng.Uniform(1.0, 10.0) * static_cast<double>(task.period);
      ApplyBcecRatio(task, options.bcec_wcec_ratio);
      tasks.push_back(std::move(task));
    }

    model::TaskSet set =
        ScaleToUtilization(std::move(tasks), dvs, options.utilization);

    // An oversized draw is rejected by its count, without expanding it.
    if (fps::CountSubInstances(set, sub_cap) > sub_cap) {
      continue;
    }
    if (multi_core) {
      // Per-core admission belongs to the partitioner; here only reject sets
      // with a task no single core could ever carry at Vmax.
      const double max_speed = dvs.MaxSpeed();
      bool oversized = false;
      for (const model::Task& task : set.tasks()) {
        if (task.wcec > static_cast<double>(task.period) * max_speed) {
          oversized = true;
          break;
        }
      }
      if (oversized) {
        continue;
      }
    } else if (!sim::IsRmSchedulable(fps::FullyPreemptiveSchedule(set),
                                     dvs)) {
      continue;
    }
    return set;
  }
  throw util::SolverError(
      "random task-set generation exhausted its attempt budget (" +
      std::to_string(options.max_attempts) + " draws); parameters: n=" +
      std::to_string(options.num_tasks) +
      " U=" + std::to_string(options.utilization));
}

}  // namespace dvs::workload
