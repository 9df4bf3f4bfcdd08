// Reproduces Fig. 6 (left): ACS-vs-WCS energy improvement on random task
// sets, tasks in {2,4,6,8,10} x BCEC/WCEC ratio in {0.1, 0.5, 0.9}.
//
// Paper shape: improvement grows with the task count, peaks near 60% at
// ratio 0.1 / 10 tasks, and nearly vanishes at ratio 0.9.
#include <iostream>

#include "bench_common.h"
#include "util/error.h"
#include "util/strings.h"
#include "workload/presets.h"

int main(int argc, char** argv) {
  using namespace dvs;
  bench::SweepConfig config;
  util::ArgParser parser("bench_fig6a_random",
                         "Fig. 6 (left): improvement vs task count");
  config.Register(parser);
  try {
    if (!parser.Parse(argc, argv)) {
      return 0;
    }
    config.Finalize();

    const model::LinearDvsModel cpu = workload::DefaultModel();
    const int task_counts[] = {2, 4, 6, 8, 10};
    const double ratios[] = {0.1, 0.5, 0.9};

    util::TextTable table({"tasks", "ratio 0.1", "ratio 0.5", "ratio 0.9"});
    util::CsvTable csv({"num_tasks", "bcec_wcec_ratio", "improvement_mean",
                        "improvement_stddev", "improvement_min",
                        "improvement_max", "tasksets", "deadline_misses"});

    std::cout << "Fig. 6 (left) — ACS improvement over WCS, random task sets\n"
              << "(" << config.tasksets << " sets/point, "
              << config.hyper_periods << " hyper-periods each, "
              << config.ResolvedThreads() << " threads"
              << (config.paper ? ", paper scale" : "") << ")\n\n";

    ACS_REQUIRE(config.MethodList().size() >= 2,
                "this bench reports improvement over the baseline; --methods "
                "needs at least one non-baseline entry");
    for (int n : task_counts) {
      std::vector<std::string> row{std::to_string(n)};
      for (double ratio : ratios) {
        const bench::SweepPoint point =
            bench::RunRandomSweep(n, ratio, config, cpu);
        const bool has_data = point.improvement.count() > 0;
        row.push_back(has_data ? util::FormatPercent(point.improvement.mean())
                               : "n/a");
        csv.NewRow()
            .Add(n)
            .Add(ratio, 2)
            .Add(has_data ? point.improvement.mean() : 0.0, 6)
            .Add(has_data ? point.improvement.stddev() : 0.0, 6)
            .Add(has_data ? point.improvement.min() : 0.0, 6)
            .Add(has_data ? point.improvement.max() : 0.0, 6)
            .Add(static_cast<std::int64_t>(point.improvement.count()))
            .Add(point.total_misses);
        if (point.failed_cells != 0) {
          std::cerr << "WARNING: " << point.failed_cells
                    << " cells failed and were skipped at n=" << n
                    << " ratio=" << ratio << "\n";
        }
        if (point.total_misses != 0) {
          std::cerr << "WARNING: deadline misses at n=" << n
                    << " ratio=" << ratio << "\n";
        }
      }
      table.AddRow(std::move(row));
    }
    bench::Emit(table, csv, config);
    std::cout << "\npaper reference: ~60% at (10 tasks, ratio 0.1); "
                 "improvement rises with task count, falls with ratio\n";
    return 0;
  } catch (const util::Error& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 1;
  }
}
