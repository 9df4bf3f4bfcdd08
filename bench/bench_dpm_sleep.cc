// Leakage-aware DPM sweep: DPM-off vs DPM-on fleet energy, paired.
//
// The DPM layer's headline experiment (Huang et al., leakage-aware DVS):
// draw lightly loaded fleets (default 10% worst-case utilisation per core —
// the regime where the always-on idle floor dominates), then run every cell
// twice from the same master seed: once on the legacy pipeline, once with
// the DPM layer on — sleep states across break-even idle intervals, the
// critical-speed dispatch floor, and the cross-hyper-period reallocation
// that empties under-utilised cores.  Identical seeds mean identical
// task-set draws (and identical partitions for the utilisation-driven
// partitioners), so the off/on delta is the DPM win, not a seed lottery.
//
// Reported per (core count, partitioner): mean fleet power off and on, the
// paired saving, committed sleeps, reallocation migrations, the
// time-weighted powered-core count, and deadline misses (which must stay
// zero: timed sleeps never move a dispatch, and the reallocator preserves
// exact RM admission).
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "dpm/dpm.h"
#include "util/error.h"
#include "util/strings.h"
#include "workload/presets.h"

int main(int argc, char** argv) {
  using namespace dvs;
  bench::SweepConfig config;
  config.tasksets = 4;
  config.hyper_periods = 50;
  bench::FleetFlags fleet;
  fleet.cores = "2,4";
  fleet.partitioners = "ffd,wfd,energy-greedy";
  fleet.idle_power = 0.5;
  fleet.per_core_utilization = 0.1;

  util::ArgParser parser("bench_dpm_sleep",
                         "leakage-aware DPM vs the always-on idle floor");
  config.Register(parser);
  fleet.Register(parser, config);
  try {
    if (!parser.Parse(argc, argv)) {
      return 0;
    }
    // The comparison is off-vs-on by construction; --dpm only affects the
    // --cell-csv schema (the on-grid rows carry the DPM ledger columns).
    config.dpm = true;
    config.Finalize();

    const std::vector<int> core_counts = fleet.CoreCounts();
    const std::vector<std::string> partitioners = fleet.PartitionerList();

    const model::LinearDvsModel cpu = workload::DefaultModel();
    // The on-grid evaluates under the floored model RunGrid derives from
    // its DPM options; resolve it here only to report the floor.
    runner::ExperimentGrid probe;
    fleet.Apply(config, probe);
    const std::unique_ptr<const model::DvsModel> floored =
        dvs::dpm::FlooredModel(cpu, probe.dpm);

    std::cout << "Leakage-aware DPM sweep ("
              << util::FormatPercent(fleet.per_core_utilization)
              << " per core, idle floor " << fleet.idle_power
              << "/ms/core, sleep \""
              << fleet.sleep_state << "\", "
              << (floored != nullptr
                      ? "speed floor " +
                            util::FormatDouble(floored->MinSpeed(), 3)
                      : std::string("no speed floor"))
              << ", " << config.tasksets << " sets/point, "
              << config.ResolvedThreads() << " threads)\n\n";

    util::TextTable table({"cores", "partitioner", "off power", "on power",
                           "saving", "sleeps", "migr", "w-cores", "misses"});
    util::CsvTable csv({"cores", "partitioner", "off_fleet_power",
                        "on_fleet_power", "saving_mean", "saving_stddev",
                        "sleeps", "migrations", "weighted_cores_mean",
                        "deadline_misses", "failed_cells"});

    for (int m : core_counts) {
      const runner::TaskSetSource source = fleet.Source(m, config.tasksets);

      // Sibling grids from one master seed: identical task-set draws and
      // workload streams, differing only in the DPM layer (and the floored
      // model RunGrid evaluates the on-grid under).
      runner::ExperimentGrid on_grid = config.MakeGrid(
          cpu, {source}, static_cast<std::uint64_t>(m));
      on_grid.core_counts = {m};
      on_grid.partitioners = partitioners;
      fleet.Apply(config, on_grid);

      runner::ExperimentGrid off_grid = on_grid;
      off_grid.dpm.enabled = false;

      const runner::GridResult off = bench::RunGridTimed(
          off_grid, config, "dpm-off-m" + std::to_string(m));
      const runner::GridResult on = bench::RunGridTimed(
          on_grid, config, "dpm-on-m" + std::to_string(m));
      const std::size_t method = bench::FirstNonBaseline(off_grid);

      for (std::size_t p = 0; p < partitioners.size(); ++p) {
        stats::OnlineStats off_power;
        stats::OnlineStats on_power;
        stats::OnlineStats saving;
        stats::OnlineStats weighted;
        std::int64_t sleeps = 0;
        std::int64_t migrations = 0;
        std::int64_t misses = 0;
        std::size_t failed = 0;
        for (std::size_t i = 0; i < off.cells.size(); ++i) {
          const runner::CellResult& a = off.cells[i];
          const runner::CellResult& b = on.cells[i];
          if (a.coord.partitioner_index != p) {
            continue;
          }
          if (!a.ok() || !b.ok()) {
            ++failed;
            continue;
          }
          const core::MethodOutcome& off_out = a.outcomes[method];
          const core::MethodOutcome& on_out = b.outcomes[method];
          off_power.Add(off_out.measured_energy);
          on_power.Add(on_out.measured_energy);
          saving.Add(core::ImprovementRatio(off_out.measured_energy,
                                            on_out.measured_energy));
          weighted.Add(on_out.weighted_cores);
          sleeps += on_out.sleeps;
          migrations += on_out.migrations;
          for (const core::MethodOutcome& outcome : a.outcomes) {
            misses += outcome.deadline_misses;
          }
          for (const core::MethodOutcome& outcome : b.outcomes) {
            misses += outcome.deadline_misses;
          }
        }
        const bool has_data = saving.count() > 0;
        table.AddRow(
            {std::to_string(m), partitioners[p],
             has_data ? util::FormatDouble(off_power.mean(), 3) : "n/a",
             has_data ? util::FormatDouble(on_power.mean(), 3) : "n/a",
             has_data ? util::FormatPercent(saving.mean()) : "n/a",
             std::to_string(sleeps), std::to_string(migrations),
             has_data ? util::FormatDouble(weighted.mean(), 2) : "n/a",
             std::to_string(misses)});
        csv.NewRow()
            .Add(m)
            .Add(partitioners[p])
            .Add(has_data ? off_power.mean() : 0.0, 6)
            .Add(has_data ? on_power.mean() : 0.0, 6)
            .Add(has_data ? saving.mean() : 0.0, 6)
            .Add(has_data ? saving.stddev() : 0.0, 6)
            .Add(sleeps)
            .Add(migrations)
            .Add(has_data ? weighted.mean() : 0.0, 4)
            .Add(misses)
            .Add(failed);
      }
    }
    bench::Emit(table, csv, config);
    std::cout << "\nreading: at light load the idle floor dominates, so "
                 "sleeping through consolidated idle intervals (and emptying "
                 "cores across hyper-periods) cuts fleet power well below "
                 "the DVS-only pipeline — with zero deadline misses, since "
                 "timed sleeps never move a dispatch\n";
    return 0;
  } catch (const util::Error& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 1;
  }
}
