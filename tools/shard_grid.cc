// Sharded smoke-grid runner: one process = one shard of a fixed grid.
//
// Runs the repository's smoke grid (runner::GoldenSmokeGrid, the exact grid
// behind tests/data/golden_smoke_grid.csv, or runner::GoldenPlanningGrid
// behind golden_planning_grid.csv with --planning) restricted to shard
// `--shard` of `--shard-count`, streaming the shard's rows to `--cell-csv`.
// Merging every shard's CSV with tools/merge_results reproduces the
// unsharded serial run byte-for-byte — the end-to-end contract that
// tests/runner_shard_test.cc pins in-process.
//
//   shard_grid --shard=0 --shard-count=2 --cell-csv=shard0.csv
//   shard_grid --shard=1 --shard-count=2 --cell-csv=shard1.csv
//   merge_results --output=merged.csv shard0.csv shard1.csv
//
// Every other flag is a bench run setting (bench/bench_common.h): threads,
// solver-stats columns, warm start, telemetry, the run manifest (carrying
// shard_index / shard_count) and the Chrome trace (pid = the shard index),
// which merge_results recombines.  A writable --cache-dir admits ONE
// writer, so concurrent shards either get their own directories or share
// a warmed one with --cache-read-only.  A shard slot outside
// [0, --shard-count) fails before any file or directory is created.
#include <cstdlib>
#include <iostream>
#include <string>

#include "bench_common.h"
#include "runner/golden_grids.h"
#include "util/error.h"
#include "util/strings.h"
#include "workload/presets.h"

int main(int argc, char** argv) {
  using namespace dvs;
  bench::SweepConfig config;
  bool planning = false;
  util::ArgParser parser(
      "shard_grid",
      "Run one shard of the fixed smoke grid, streaming rows to a CSV that "
      "tools/merge_results reassembles into the unsharded file.");
  parser.AddInt("shard", &config.shard_index,
                "shard index in [0, shard-count)");
  parser.AddInt("shard-count", &config.shard_count, "total number of shards");
  parser.AddFlag("planning", &planning,
                 "run the scenario-planning smoke grid (scenario column on) "
                 "instead of the legacy grid");
  config.RegisterRunSettings(parser);
  try {
    if (!parser.Parse(argc, argv)) {
      return EXIT_SUCCESS;
    }
    if (config.cell_csv.empty()) {
      std::cerr << "shard_grid: --cell-csv is required\n" << parser.Usage();
      return EXIT_FAILURE;
    }
    const model::LinearDvsModel cpu = workload::DefaultModel();
    runner::ExperimentGrid grid = planning ? runner::GoldenPlanningGrid(cpu)
                                           : runner::GoldenSmokeGrid(cpu);
    // The grid is fixed; the config only mirrors what the sink and the
    // manifest report.
    config.scenarios = util::Join(grid.scenarios, ",");
    config.seed = grid.master_seed;
    config.Finalize();
    grid.warm_start = config.WarmStartPolicy();

    const runner::GridResult result =
        bench::RunGridTimed(grid, config, "shard");
    config.WriteBenchJson();
    config.WriteRunArtifacts();
    std::cout << "shard " << config.shard_index << "/" << config.shard_count
              << ": " << config.cell_sink->rows() << " rows -> "
              << config.cell_csv << " (" << result.failed_cells
              << " failed cells)\n";
    return result.failed_cells == 0 ? EXIT_SUCCESS : EXIT_FAILURE;
  } catch (const util::Error& error) {
    std::cerr << "shard_grid: " << error.what() << "\n";
    return EXIT_FAILURE;
  }
}
