// Partitioned multi-core sweep: core count x partitioner x schedule method.
//
// The mp layer's headline experiment, in the spirit of the partitioned-DVS
// literature (Nélis et al.; Huang et al.): draw task sets whose worst-case
// demand scales with the fleet (utilisation = 70% per core), partition them
// with each registered strategy, run the paper's per-core ACS/WCS pipeline
// on every powered core, and report the fleet-energy improvement of
// partitioned-ACS over partitioned-WCS together with the partitioning
// cost itself.
//
// One runner::RunGrid per core count (task count and utilisation co-vary
// with m); the partitioner is a grid axis inside each, so the rows of one
// m face bit-identical task-set draws and the partitioner columns compare
// paired on the input side.  (Per-core workload realisations still differ
// between partitions — streams fork by physical core and the partitions
// assign different subsets — so small runs carry sampling noise on top of
// the partitioning effect; raise --replicates to average it out.)  Fleet figures
// are energy per ms including the per-powered-core idle floor (mp/fleet.h);
// the default non-zero --idle-power keeps every cell — m = 1 included — in
// those units and gives consolidation-vs-spread a real trade-off.
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "util/error.h"
#include "util/strings.h"
#include "workload/presets.h"

int main(int argc, char** argv) {
  using namespace dvs;
  bench::SweepConfig config;
  config.tasksets = 4;
  config.hyper_periods = 50;
  bench::FleetFlags fleet;
  fleet.cores = "1,2,4,8";
  fleet.partitioners = "ffd,wfd,energy-greedy";

  util::ArgParser parser("bench_mp_partition",
                         "partitioned multi-core ACS vs WCS fleet energy");
  config.Register(parser);
  fleet.Register(parser, config);
  try {
    if (!parser.Parse(argc, argv)) {
      return 0;
    }
    config.Finalize();

    const std::vector<int> core_counts = fleet.CoreCounts();
    const std::vector<std::string> partitioners = fleet.PartitionerList();

    const model::LinearDvsModel cpu = workload::DefaultModel();

    std::cout << "Partitioned multi-core sweep ("
              << util::FormatPercent(fleet.per_core_utilization)
              << " per core, idle floor " << fleet.idle_power << "/ms/core, "
              << config.tasksets << " sets/point, "
              << config.ResolvedThreads() << " threads)\n\n";

    util::TextTable table({"cores", "partitioner", "ACS fleet power",
                           "ACS vs WCS", "misses", "failed"});
    util::CsvTable csv({"cores", "partitioner", "acs_fleet_power",
                        "improvement_mean", "improvement_stddev",
                        "deadline_misses", "failed_cells"});

    for (int m : core_counts) {
      runner::ExperimentGrid grid = config.MakeGrid(
          cpu, {fleet.Source(m, config.tasksets)},
          static_cast<std::uint64_t>(m));
      grid.core_counts = {m};
      grid.partitioners = partitioners;
      fleet.Apply(config, grid);

      const runner::GridResult result = bench::RunGridTimed(
          grid, config, "cores-" + std::to_string(m));
      const std::size_t baseline = grid.BaselineIndex();
      const std::size_t method = bench::FirstNonBaseline(grid);

      for (std::size_t p = 0; p < partitioners.size(); ++p) {
        stats::OnlineStats power;
        stats::OnlineStats improvement;
        std::int64_t misses = 0;
        std::size_t failed = 0;
        for (const runner::CellResult& cell : result.cells) {
          if (cell.coord.partitioner_index != p) {
            continue;
          }
          if (!cell.ok()) {
            ++failed;
            continue;
          }
          double cell_power = cell.outcomes[method].measured_energy;
          if (!grid.MultiCore()) {
            // m = 1 with a zero idle floor runs the legacy single-core path
            // (energy per hyper-period); normalise so the column is
            // energy/ms in every row.
            cell_power /= static_cast<double>(cell.hyper_period);
          }
          power.Add(cell_power);
          improvement.Add(cell.ImprovementOver(method, baseline));
          for (const core::MethodOutcome& outcome : cell.outcomes) {
            misses += outcome.deadline_misses;
          }
        }
        const bool has_data = improvement.count() > 0;
        table.AddRow({std::to_string(m), partitioners[p],
                      has_data ? util::FormatDouble(power.mean(), 2) : "n/a",
                      has_data ? util::FormatPercent(improvement.mean())
                               : "n/a",
                      std::to_string(misses), std::to_string(failed)});
        csv.NewRow()
            .Add(m)
            .Add(partitioners[p])
            .Add(has_data ? power.mean() : 0.0, 6)
            .Add(has_data ? improvement.mean() : 0.0, 6)
            .Add(has_data ? improvement.stddev() : 0.0, 6)
            .Add(misses)
            .Add(failed);
      }
    }
    bench::Emit(table, csv, config);
    std::cout << "\nreading: the per-core ACS win survives partitioning at "
                 "every core count; the partitioner decides how much idle "
                 "floor the fleet pays on top\n";
    return 0;
  } catch (const util::Error& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 1;
  }
}
