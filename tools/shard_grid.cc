// Sharded smoke-grid runner: one process = one shard of a fixed grid.
//
// Runs the repository's smoke grid (runner::GoldenSmokeGrid, the exact grid
// behind tests/data/golden_smoke_grid.csv, or runner::GoldenPlanningGrid
// behind golden_planning_grid.csv with --planning) restricted to shard
// `--shard` of `--shard-count`, streaming the shard's rows to `--csv`.
// Merging every shard's CSV with tools/merge_results reproduces the
// unsharded serial run byte-for-byte — the end-to-end contract that
// tests/runner_shard_test.cc pins in-process.
//
//   shard_grid --shard=0 --shard-count=2 --csv=shard0.csv
//   shard_grid --shard=1 --shard-count=2 --csv=shard1.csv
//   merge_results --output=merged.csv shard0.csv shard1.csv
//
// Persistent solve cache (core/solve_store.h): --cache-dir points the shard
// at a cache directory — Prepare() misses pre-seed from it and the shard's
// solves are written back before the manifest, so re-running a shard (or a
// later, wider grid) only solves new cells.  A writable cache dir admits
// ONE writer: two concurrent shards pointed at the same --cache-dir
// hard-error on the directory's LOCK file.  The concurrent-shard flow is
// --cache-read-only: warm one shared directory first (e.g. a --shard-count=1
// pass, or a previous run), then launch the fleet with
// --cache-dir=<shared> --cache-read-only — every shard pre-seeds from the
// shared entries without locking or writing, and per-shard *writable* dirs
// stay possible by giving each shard its own --cache-dir.
#include <chrono>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>

#include "core/solve_store.h"
#include "obs/manifest.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runner/csv_sink.h"
#include "runner/experiment_grid.h"
#include "runner/golden_grids.h"
#include "runner/run_grid.h"
#include "util/cli.h"
#include "util/error.h"
#include "workload/presets.h"

namespace {

using namespace dvs;

int Run(int argc, const char* const* argv) {
  std::int64_t shard = 0;
  std::int64_t shard_count = 1;
  std::int64_t threads = 1;
  std::string csv;
  bool planning = false;
  bool solver_stats = false;
  std::string warm_start = "off";
  std::string trace_out;
  std::string manifest_out;
  std::string cache_dir;
  bool cache_read_only = false;

  util::ArgParser parser(
      "shard_grid",
      "Run one shard of the fixed smoke grid, streaming rows to a CSV that "
      "tools/merge_results reassembles into the unsharded file.");
  parser.AddInt("shard", &shard, "shard index in [0, shard-count)");
  parser.AddInt("shard-count", &shard_count, "total number of shards");
  parser.AddInt("threads", &threads,
                "worker threads for this shard (<= 0: hardware threads)");
  parser.AddString("csv", &csv, "output CSV path for this shard (required)");
  parser.AddFlag("planning", &planning,
                 "run the scenario-planning smoke grid (scenario column on) "
                 "instead of the legacy grid");
  parser.AddFlag("solver-stats", &solver_stats,
                 "append the opt-in solver iteration/evaluation CSV columns");
  parser.AddString("warm-start", &warm_start,
                   "sigma-axis warm-start policy: off | neighbor");
  parser.AddString("trace-out", &trace_out,
                   "write this shard's Chrome trace_event JSON here "
                   "(merge_results --merged-trace recombines shards)");
  parser.AddString("manifest-out", &manifest_out,
                   "write this shard's run manifest here (merge_results "
                   "--merged-manifest recombines shards)");
  parser.AddString("cache-dir", &cache_dir,
                   "persistent solve-cache directory: pre-seed solves from "
                   "it, write this shard's solves back (one writer per "
                   "directory — concurrent shards need --cache-read-only "
                   "or per-shard dirs)");
  parser.AddFlag("cache-read-only", &cache_read_only,
                 "open --cache-dir read-only: pre-seed without locking or "
                 "writing back (the shared-cache flow for concurrent "
                 "shards)");
  if (!parser.Parse(argc, argv)) {
    return EXIT_SUCCESS;
  }
  if (csv.empty()) {
    std::cerr << "shard_grid: --csv is required\n" << parser.Usage();
    return EXIT_FAILURE;
  }

  const model::LinearDvsModel cpu = workload::DefaultModel();
  runner::ExperimentGrid grid = planning ? runner::GoldenPlanningGrid(cpu)
                                         : runner::GoldenSmokeGrid(cpu);
  if (warm_start == "neighbor") {
    grid.warm_start = core::WarmStartPolicy::kNeighbor;
  } else if (warm_start != "off") {
    std::cerr << "shard_grid: unknown --warm-start \"" << warm_start
              << "\" (expected off | neighbor)\n";
    return EXIT_FAILURE;
  }

  // Telemetry: installed before RunGrid spawns workers, observation-only —
  // the CSV bytes are identical with or without these flags (the
  // golden-bytes tests pin this).
  std::unique_ptr<obs::MetricsRegistry> metrics;
  if (!manifest_out.empty()) {
    metrics = std::make_unique<obs::MetricsRegistry>();
    obs::InstallMetrics(metrics.get());
  }
  std::unique_ptr<obs::TraceRecorder> trace;
  if (!trace_out.empty()) {
    trace = std::make_unique<obs::TraceRecorder>();
    obs::TraceRecorder::Install(trace.get());
  }

  // The writable open throws on a held LOCK — the two-shards-one-cache-dir
  // hard error happens here, before any cell runs.
  std::unique_ptr<core::SolveStore> store;
  if (!cache_dir.empty()) {
    store = std::make_unique<core::SolveStore>(cache_dir, cache_read_only);
  }

  runner::CsvSink sink(csv, /*scenario_column=*/planning,
                       /*solver_stats_columns=*/solver_stats);
  runner::RunOptions options;
  options.threads = static_cast<int>(threads);
  options.sink = &sink;
  options.shard_index = static_cast<std::size_t>(shard);
  options.shard_count = static_cast<std::size_t>(shard_count);
  options.solve_store = store.get();
  const auto start = std::chrono::steady_clock::now();
  const runner::GridResult result = runner::RunGrid(grid, options);
  const std::chrono::duration<double, std::milli> wall =
      std::chrono::steady_clock::now() - start;

  // Before the manifest, so persist.write_backs lands in its metrics.
  if (store != nullptr && !store->read_only()) {
    const std::size_t written = store->WriteBack();
    std::cout << "solve cache: " << written << " entr"
              << (written == 1 ? "y" : "ies") << " written back to "
              << cache_dir << "\n";
  }

  if (trace != nullptr) {
    trace->WriteChromeTrace(trace_out,
                            static_cast<std::uint32_t>(shard));
    std::cout << "trace written to " << trace_out << " ("
              << trace->event_count() << " spans)\n";
  }
  if (metrics != nullptr) {
    obs::RunManifest manifest;
    manifest.tool = planning ? "shard_grid --planning" : "shard_grid";
    manifest.master_seed = grid.master_seed;
    manifest.threads = options.threads;
    manifest.shard_index = static_cast<std::size_t>(shard);
    manifest.shard_count = static_cast<std::size_t>(shard_count);
    manifest.wall_ms = wall.count();
    manifest.config = {
        {"grid", planning ? "planning" : "smoke"},
        {"warm_start", warm_start},
        {"solver_stats", solver_stats ? "true" : "false"},
    };
    manifest.execution = {
        {"cache_dir", cache_dir},
        {"cache_read_only", cache_read_only ? "true" : "false"},
    };
    obs::WriteManifest(manifest_out, manifest, metrics.get());
    obs::InstallMetrics(nullptr);
    std::cout << "manifest written to " << manifest_out << "\n";
  }

  std::cout << "shard " << shard << "/" << shard_count << ": " << sink.rows()
            << " rows -> " << csv << " (" << result.failed_cells
            << " failed cells)\n";
  return result.failed_cells == 0 ? EXIT_SUCCESS : EXIT_FAILURE;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return Run(argc, argv);
  } catch (const dvs::util::Error& error) {
    std::cerr << "shard_grid: " << error.what() << "\n";
    return EXIT_FAILURE;
  }
}
