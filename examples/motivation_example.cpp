// Walk-through of the paper's §2.2 motivational example with ASCII Gantt
// charts: the static WCEC-optimal schedule (Fig. 1a), its greedy runtime
// under average workloads (Fig. 1b), the ACS schedule (Fig. 2) and the
// worst-case behaviour of both.
//
//   $ ./examples/motivation_example
#include <iostream>

#include "core/scheduler.h"
#include "fps/expansion.h"
#include "model/workload.h"
#include "sim/engine.h"
#include "sim/policy.h"
#include "sim/trace.h"
#include "util/error.h"
#include "util/strings.h"
#include "workload/motivation.h"

namespace {

void ShowRuntime(const char* title, const dvs::fps::FullyPreemptiveSchedule& fps,
                 const dvs::sim::StaticSchedule& schedule,
                 const dvs::model::DvsModel& cpu,
                 dvs::model::FixedScenario scenario) {
  using namespace dvs;
  const model::TaskSet& set = fps.task_set();
  const model::FixedWorkload sampler(set, scenario);
  const sim::GreedyReclaimPolicy policy(cpu);
  stats::Rng rng(1);
  sim::SimOptions options;
  options.record_trace = true;
  const sim::SimResult result =
      sim::Simulate(fps, schedule, cpu, policy, sampler, rng, options);
  std::cout << title << "\n"
            << sim::RenderTraceGantt(result.trace, set, 20.0, 63)
            << "total energy: " << result.total_energy
            << "   deadline misses: " << result.deadline_misses << "\n\n";
}

}  // namespace

int main() {
  using namespace dvs;
  try {
    const model::TaskSet set = workload::MotivationTaskSet();
    const model::LinearDvsModel cpu = workload::MotivationModel();
    const fps::FullyPreemptiveSchedule fps(set);

    std::cout << "Paper §2.2: three tasks sharing a 20 ms frame, "
                 "WCEC = 2e7 cycles (20 V*ms each), ACEC = WCEC/2\n\n";

    // The two candidate schedules, recovered by the solvers.
    const core::ScheduleResult wcs = core::SolveWcs(fps, cpu);
    const core::ScheduleResult acs = core::SolveSchedule(
        fps, cpu, core::Scenario::kAverage, wcs.schedule);

    std::cout << "WCS end-times (paper Fig. 1): ";
    for (std::size_t u = 0; u < 3; ++u) {
      std::cout << util::FormatDouble(wcs.schedule.end_time(u), 2) << " ";
    }
    std::cout << "ms\nACS end-times (paper Fig. 2): ";
    for (std::size_t u = 0; u < 3; ++u) {
      std::cout << util::FormatDouble(acs.schedule.end_time(u), 2) << " ";
    }
    std::cout << "ms\n\n";

    ShowRuntime("Fig. 1(b) — WCS schedule, average workloads:", fps,
                wcs.schedule, cpu, model::FixedScenario::kAverage);
    ShowRuntime("Fig. 2 — ACS schedule, average workloads:", fps,
                acs.schedule, cpu, model::FixedScenario::kAverage);
    ShowRuntime("WCS schedule, worst-case workloads:", fps, wcs.schedule,
                cpu, model::FixedScenario::kWorst);
    ShowRuntime("ACS schedule, worst-case workloads (note the 4 V "
                "catch-up, paper §2.2):",
                fps, acs.schedule, cpu, model::FixedScenario::kWorst);
    return 0;
  } catch (const util::Error& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 1;
  }
}
