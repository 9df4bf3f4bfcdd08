// Ablation: the paper's "voltage transition overhead is negligible"
// assumption (§3: "the increase of energy consumption is negligible when
// the transition time is small comparing with the task execution time").
//
// The engine can charge a stall time and an energy cost per volt of change;
// this bench sweeps the overhead magnitude and reports the energy increase
// and any deadline damage, quantifying where the assumption holds.
//
// Each stall value runs as one runner::RunGrid whose `transition` field
// charges the overhead in every cell; the grids share one master seed, so
// every row faces bit-identical task sets and workload realisations and
// the energy ratio isolates the overhead alone.
#include <iostream>

#include "bench_common.h"
#include "util/error.h"
#include "util/strings.h"
#include "workload/presets.h"
#include "workload/random_taskset.h"

int main(int argc, char** argv) {
  using namespace dvs;
  bench::SweepConfig config;
  config.tasksets = 5;
  config.methods = "acs";
  config.baseline = "acs";
  util::ArgParser parser("bench_ablation_transition",
                         "voltage-transition overhead sensitivity");
  config.Register(parser);
  try {
    if (!parser.Parse(argc, argv)) {
      return 0;
    }
    config.Finalize();

    const model::LinearDvsModel cpu = workload::DefaultModel();
    // Stall time per volt, as a fraction of the shortest period (10 time
    // units): 0 (the paper), 1e-3, 1e-2, 1e-1.
    const double stalls[] = {0.0, 1e-3, 1e-2, 1e-1};

    util::TextTable table({"stall/volt (time units)", "ACS energy ratio",
                           "switches/hyper-period", "misses"});
    util::CsvTable csv({"stall_per_volt", "energy_ratio", "switch_rate",
                        "deadline_misses"});

    std::cout << "Ablation: voltage-transition overhead (6 tasks, ratio "
                 "0.3, " << config.tasksets << " sets, "
              << config.ResolvedThreads()
              << " threads; energy cost 0.1/volt in all non-zero rows)\n\n";

    workload::RandomTaskSetOptions gen;
    gen.num_tasks = 6;
    gen.bcec_wcec_ratio = 0.3;

    double base_energy = 0.0;
    for (double stall : stalls) {
      // One grid per stall value; the shared config seed keeps the task
      // sets and workload streams identical across rows, and the stall
      // value is baked into the source label so --cell-csv rows from the
      // four grids stay distinguishable.
      runner::ExperimentGrid grid = config.MakeGrid(
          cpu, {runner::RandomSource(
                   "random-6-stall" + util::FormatDouble(stall, 4), gen,
                   config.tasksets)});
      if (stall > 0.0) {
        grid.transition = model::TransitionOverhead{stall, 0.1};
      }
      const runner::GridResult result = bench::RunGridTimed(
          grid, config, "stall-" + util::FormatDouble(stall, 4));
      // The columns are specific to one arm — the baseline (ACS unless
      // overridden) — even when --methods lists several.
      const std::size_t report = grid.BaselineIndex();

      double energy = 0.0;
      double switches_per_hp = 0.0;
      std::int64_t misses = 0;
      std::size_t cells = 0;
      for (const runner::CellResult& cell : result.cells) {
        if (!cell.ok()) {
          continue;
        }
        ++cells;
        const core::MethodOutcome& outcome = cell.outcomes[report];
        energy += outcome.measured_energy;
        switches_per_hp += static_cast<double>(outcome.voltage_switches) /
                           static_cast<double>(config.hyper_periods);
        misses += outcome.deadline_misses;
      }
      ACS_REQUIRE(cells > 0, "every cell of the transition grid failed");
      if (stall == 0.0) {
        base_energy = energy;
      }
      table.AddRow({util::FormatDouble(stall, 4),
                    util::FormatDouble(energy / base_energy, 4) + "x",
                    util::FormatDouble(
                        switches_per_hp / static_cast<double>(cells), 1),
                    std::to_string(misses)});
      csv.NewRow()
          .Add(stall, 5)
          .Add(energy / base_energy, 6)
          .Add(switches_per_hp / static_cast<double>(cells), 2)
          .Add(misses);
    }
    bench::Emit(table, csv, config);
    std::cout << "\nreading: the paper's assumption holds while the stall "
                 "stays well under the shortest period; large stalls both "
                 "cost energy and endanger deadlines\n";
    return 0;
  } catch (const util::Error& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 1;
  }
}
