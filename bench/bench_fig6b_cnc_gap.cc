// Reproduces Fig. 6 (right): ACS-vs-WCS energy improvement on the two
// real-life applications — the CNC controller (Kim et al., RTSS'96) and the
// GAP avionics platform (Locke et al.) — across BCEC/WCEC ratios.
//
// Paper shape: improvement decreases with the ratio; peaks of ~41% (CNC)
// and ~30% (GAP) at ratio 0.1.
#include <iostream>

#include "bench_common.h"
#include "util/error.h"
#include "util/strings.h"
#include "workload/cnc.h"
#include "workload/gap.h"
#include "workload/presets.h"

int main(int argc, char** argv) {
  using namespace dvs;
  bench::SweepConfig config;
  util::ArgParser parser("bench_fig6b_cnc_gap",
                         "Fig. 6 (right): CNC & GAP improvement vs ratio");
  config.Register(parser);
  try {
    if (!parser.Parse(argc, argv)) {
      return 0;
    }
    config.Finalize();

    const model::LinearDvsModel cpu = workload::DefaultModel();
    const double ratios[] = {0.1, 0.3, 0.5, 0.7, 0.9};

    util::TextTable table({"ratio", "CNC", "GAP"});
    util::CsvTable csv({"application", "bcec_wcec_ratio", "improvement_mean",
                        "improvement_stddev", "seeds", "deadline_misses"});

    std::cout << "Fig. 6 (right) — ACS improvement over WCS, real-life "
                 "applications\n("
              << config.seeds << " workload streams/point, "
              << config.hyper_periods << " hyper-periods each, "
              << config.ResolvedThreads() << " threads"
              << (config.paper ? ", paper scale" : "") << ")\n\n";

    ACS_REQUIRE(config.MethodList().size() >= 2,
                "this bench reports improvement over the baseline; --methods "
                "needs at least one non-baseline entry");
    const auto emit = [&csv](const char* app, double ratio,
                             const bench::SweepPoint& point) {
      const bool has_data = point.improvement.count() > 0;
      csv.NewRow()
          .Add(app)
          .Add(ratio, 2)
          .Add(has_data ? point.improvement.mean() : 0.0, 6)
          .Add(has_data ? point.improvement.stddev() : 0.0, 6)
          .Add(static_cast<std::int64_t>(point.improvement.count()))
          .Add(point.total_misses);
      if (point.failed_cells != 0) {
        std::cerr << "WARNING: " << point.failed_cells << " " << app
                  << " cells failed and were skipped at ratio " << ratio
                  << "\n";
      }
      return has_data ? util::FormatPercent(point.improvement.mean())
                      : std::string("n/a");
    };
    for (double ratio : ratios) {
      workload::CncOptions cnc_options;
      cnc_options.bcec_wcec_ratio = ratio;
      const model::TaskSet cnc = workload::CncTaskSet(cnc_options, cpu);
      const bench::SweepPoint pc = bench::RunFixedSetSweep(
          cnc, "cnc-r" + util::FormatDouble(ratio, 1), config, cpu);

      workload::GapOptions gap_options;
      gap_options.bcec_wcec_ratio = ratio;
      const model::TaskSet gap = workload::GapTaskSet(gap_options, cpu);
      const bench::SweepPoint pg = bench::RunFixedSetSweep(
          gap, "gap-r" + util::FormatDouble(ratio, 1), config, cpu);

      table.AddRow({util::FormatDouble(ratio, 1), emit("cnc", ratio, pc),
                    emit("gap", ratio, pg)});
      if (pc.total_misses + pg.total_misses != 0) {
        std::cerr << "WARNING: deadline misses at ratio " << ratio << "\n";
      }
    }
    bench::Emit(table, csv, config);
    std::cout << "\npaper reference: ~41% (CNC) and ~30% (GAP) at ratio 0.1, "
                 "falling towards zero at 0.9\n";
    return 0;
  } catch (const util::Error& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 1;
  }
}
