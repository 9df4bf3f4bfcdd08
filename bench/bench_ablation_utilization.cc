// Ablation: improvement vs worst-case utilisation.
//
// The paper fixes U = 70% at Vmax.  This bench sweeps the utilisation to
// show where ACS's advantage lives: low utilisation leaves slack everywhere
// (both methods reach low voltages), high utilisation leaves no room to
// shift end-times.  The sweep runs as one runner::RunGrid with the
// utilisation as a grid axis.
#include <iostream>

#include "bench_common.h"
#include "core/pipeline.h"
#include "util/error.h"
#include "util/strings.h"
#include "workload/presets.h"
#include "workload/random_taskset.h"

int main(int argc, char** argv) {
  using namespace dvs;
  bench::SweepConfig config;
  config.tasksets = 6;
  util::ArgParser parser("bench_ablation_utilization",
                         "improvement vs worst-case utilisation");
  config.Register(parser);
  try {
    if (!parser.Parse(argc, argv)) {
      return 0;
    }
    config.Finalize();

    const model::LinearDvsModel cpu = workload::DefaultModel();

    workload::RandomTaskSetOptions gen;
    gen.num_tasks = 6;
    gen.bcec_wcec_ratio = 0.1;
    runner::ExperimentGrid grid = config.MakeGrid(
        cpu, {runner::RandomSource("random-6", gen, config.tasksets)});
    grid.utilizations = {0.3, 0.5, 0.7, 0.8, 0.9};

    util::TextTable table({"utilization", "mean improvement", "stddev",
                           "misses"});
    util::CsvTable csv({"utilization", "improvement_mean",
                        "improvement_stddev", "deadline_misses"});

    std::cout << "Ablation: worst-case utilisation (6 tasks, ratio 0.1, "
              << config.tasksets << " sets/point, " << config.ResolvedThreads()
              << " threads; paper fixes 0.7)\n\n";

    const runner::GridResult result =
        bench::RunGridTimed(grid, config, "utilization-grid");
    const std::size_t baseline = grid.BaselineIndex();
    // Improvement column tracks the first non-baseline method.
    const std::size_t method = bench::FirstNonBaseline(grid);

    for (std::size_t u = 0; u < grid.utilizations.size(); ++u) {
      stats::OnlineStats improvement;
      std::int64_t misses = 0;
      for (const runner::CellResult& cell : result.cells) {
        if (!cell.ok() || cell.coord.util_index != u) {
          continue;
        }
        improvement.Add(cell.ImprovementOver(method, baseline));
        for (const core::MethodOutcome& outcome : cell.outcomes) {
          misses += outcome.deadline_misses;
        }
      }
      const bool has_data = improvement.count() > 0;
      table.AddRow({util::FormatDouble(grid.utilizations[u], 1),
                    has_data ? util::FormatPercent(improvement.mean()) : "n/a",
                    has_data ? util::FormatPercent(improvement.stddev())
                             : "n/a",
                    std::to_string(misses)});
      csv.NewRow()
          .Add(grid.utilizations[u], 2)
          .Add(has_data ? improvement.mean() : 0.0, 6)
          .Add(has_data ? improvement.stddev() : 0.0, 6)
          .Add(misses);
    }
    bench::Emit(table, csv, config);
    return 0;
  } catch (const util::Error& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 1;
  }
}
