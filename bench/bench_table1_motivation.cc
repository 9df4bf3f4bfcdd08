// Reproduces Table 1 + Figures 1 and 2 (the §2.2 motivational example):
//   * the WCEC-optimal static schedule {6.7, 13.3, 20} ms at 3 V (Fig. 1a),
//   * its greedy runtime under ACEC (Fig. 1b: finishes 3.3 / 8.3 / 14.2 ms),
//   * the ACS schedule {10, 15, 20} ms — 24% lower average-case energy
//     (Fig. 2), 33% higher worst-case energy, 4 V worst-case requirement,
//   * the same schedules recovered *by the solvers* rather than hard-coded.
#include <iostream>

#include "bench_common.h"
#include "core/formulation.h"
#include "core/scheduler.h"
#include "fps/expansion.h"
#include "model/workload.h"
#include "sim/engine.h"
#include "sim/policy.h"
#include "util/error.h"
#include "util/strings.h"
#include "workload/motivation.h"

namespace {

struct Row {
  std::string name;
  double e1, e2, e3;
  double avg_energy;
  double worst_energy;
};

Row Measure(const std::string& name, const dvs::fps::FullyPreemptiveSchedule& fps,
            const dvs::sim::StaticSchedule& schedule,
            const dvs::model::DvsModel& cpu) {
  using namespace dvs;
  const model::TaskSet& set = fps.task_set();
  const sim::GreedyReclaimPolicy policy(cpu);
  const model::FixedWorkload avg(set, model::FixedScenario::kAverage);
  const model::FixedWorkload worst(set, model::FixedScenario::kWorst);
  stats::Rng r1(1), r2(2);
  Row row;
  row.name = name;
  row.e1 = schedule.end_time(0);
  row.e2 = schedule.end_time(1);
  row.e3 = schedule.end_time(2);
  row.avg_energy =
      sim::Simulate(fps, schedule, cpu, policy, avg, r1).total_energy;
  row.worst_energy =
      sim::Simulate(fps, schedule, cpu, policy, worst, r2).total_energy;
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dvs;
  util::ArgParser parser("bench_table1_motivation",
                         "Table 1 / Figs. 1-2: the motivational example");
  std::string csv_path;
  parser.AddString("csv", &csv_path, "write results to this CSV file");
  try {
    if (!parser.Parse(argc, argv)) {
      return 0;
    }

    const model::TaskSet set = workload::MotivationTaskSet();
    const model::LinearDvsModel cpu = workload::MotivationModel();
    const fps::FullyPreemptiveSchedule fps(set);
    const std::vector<double> budgets(3, set.task(0).wcec);

    std::cout << "Table 1 reconstruction — three tasks, 20 ms frame, "
                 "WCEC 2e7 cycles (20 V*ms), ACEC 1e7, f = 1e6 cycles/ms/V, "
                 "V in [0.5, 4]\n\n";

    // Paper schedules, hard-coded.
    const sim::StaticSchedule fig1(fps, workload::MotivationWcsEndTimes(),
                                   budgets);
    const sim::StaticSchedule fig2(fps, workload::MotivationAcsEndTimes(),
                                   budgets);
    // Solver-recovered schedules.
    const core::ScheduleResult wcs = core::SolveWcs(fps, cpu);
    const core::ScheduleResult acs =
        core::SolveAcsFrom(fps, cpu, wcs.schedule);

    const Row rows[] = {
        Measure("Fig.1 schedule (paper WCS)", fps, fig1, cpu),
        Measure("Fig.2 schedule (paper ACS)", fps, fig2, cpu),
        Measure("WCS solver output", fps, wcs.schedule, cpu),
        Measure("ACS solver output", fps, acs.schedule, cpu),
    };

    util::TextTable table({"schedule", "e1 (ms)", "e2 (ms)", "e3 (ms)",
                           "E avg-case", "E worst-case"});
    util::CsvTable csv({"schedule", "e1", "e2", "e3", "avg_energy",
                        "worst_energy"});
    for (const Row& row : rows) {
      table.AddRow({row.name, util::FormatDouble(row.e1, 2),
                    util::FormatDouble(row.e2, 2),
                    util::FormatDouble(row.e3, 2),
                    util::FormatDouble(row.avg_energy / 1e8, 4) + "e8",
                    util::FormatDouble(row.worst_energy / 1e8, 4) + "e8"});
      csv.NewRow()
          .Add(row.name)
          .Add(row.e1, 4)
          .Add(row.e2, 4)
          .Add(row.e3, 4)
          .Add(row.avg_energy, 1)
          .Add(row.worst_energy, 1);
    }
    dvs::bench::Emit(table, csv, csv_path);

    const double improvement =
        (rows[0].avg_energy - rows[1].avg_energy) / rows[0].avg_energy;
    const double penalty =
        (rows[1].worst_energy - rows[0].worst_energy) / rows[0].worst_energy;
    std::cout << "\naverage-case improvement of Fig.2 over Fig.1: "
              << util::FormatPercent(improvement) << "  (paper: 24%)\n";
    std::cout << "worst-case penalty of Fig.2 over Fig.1:         "
              << util::FormatPercent(penalty) << "  (paper: 33%)\n";
    return 0;
  } catch (const util::Error& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 1;
  }
}
