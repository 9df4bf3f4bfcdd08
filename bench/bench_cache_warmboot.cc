// Persistent solve-cache warm-boot bench: cold vs warm-boot vs
// partial-overlap (core/solve_store.h).
//
// Four timed phases over a planning-heavy grid, each with *fresh* per-worker
// workspaces and a *fresh* SolveStore handle — i.e. each phase models a new
// process:
//
//   cold          empty cache dir; every solve/calibration computed, then
//                 written back;
//   warm-boot     the identical grid over the now-populated dir: every
//                 Prepare() pre-seeds from disk, so only simulation remains;
//   overlap-cold  the grid with an extended sigma axis into a second, empty
//                 dir — the honest denominator for the overlap speedup;
//   overlap-warm  the extended grid over the primary dir: the original
//                 sigma columns' planned solves and calibrations hit, only
//                 the new column solves.
//
// The bench byte-compares the cold and warm-boot cell CSVs (header plus
// sorted data rows — row completion order is nondeterministic across
// threads, the row *set* is not) and emits BENCH_cache_warmboot.json with
// the phase walls, speedup_warm = cold/warm, speedup_overlap =
// overlap_cold/overlap_warm, persist hit/miss/reject deltas per phase and
// the byte_identical verdict.  CI gates speedup_warm >= 5, warm persist
// hits > 0 and byte_identical == true.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "core/solve_store.h"
#include "obs/metrics.h"
#include "runner/csv_sink.h"
#include "util/error.h"
#include "util/json.h"
#include "workload/presets.h"
#include "workload/random_taskset.h"

namespace {

using namespace dvs;

double ElapsedMs(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// Persist counters folded across shards; zero when no registry is active.
struct PersistCounters {
  std::int64_t hits = 0;
  std::int64_t misses = 0;
  std::int64_t rejects = 0;

  PersistCounters operator-(const PersistCounters& other) const {
    return {hits - other.hits, misses - other.misses,
            rejects - other.rejects};
  }
};

PersistCounters SnapshotPersist() {
  PersistCounters out;
  obs::MetricsRegistry* registry = obs::ActiveMetrics();
  if (registry == nullptr) {
    return out;
  }
  for (const obs::AggregatedMetric& metric : registry->Aggregate()) {
    if (metric.name == "persist.cache_hits") {
      out.hits = metric.count;
    } else if (metric.name == "persist.cache_misses") {
      out.misses = metric.count;
    } else if (metric.name == "persist.verify_rejects") {
      out.rejects = metric.count;
    }
  }
  return out;
}

struct Phase {
  std::string label;
  double wall_ms = 0.0;
  std::size_t cells = 0;
  std::size_t failed_cells = 0;
  std::size_t entries_written = 0;
  PersistCounters persist;
  std::string csv_path;
};

/// Runs `grid` as a simulated new process: fresh workspaces, a fresh
/// writable SolveStore over `dir`, a fresh cell CSV at `csv_path`; writes
/// the store back before the handle closes.
Phase RunPhase(const std::string& label, const runner::ExperimentGrid& grid,
               const std::string& dir, const std::string& csv_path,
               const bench::SweepConfig& config) {
  Phase phase;
  phase.label = label;
  phase.csv_path = csv_path;

  std::vector<core::EvalWorkspace> workspaces;
  core::SolveStore store(dir);
  runner::CsvSink sink(csv_path, config.SweepsScenarios(),
                       config.csv_solver_stats);
  runner::RunOptions options = config.RunOpts();
  options.workspaces = &workspaces;
  options.solve_store = &store;
  options.sink = &sink;

  const PersistCounters before = SnapshotPersist();
  const auto start = std::chrono::steady_clock::now();
  const runner::GridResult result = runner::RunGrid(grid, options);
  phase.wall_ms = ElapsedMs(start);
  phase.entries_written = store.WriteBack();
  phase.persist = SnapshotPersist() - before;
  phase.cells = result.cells.size();
  phase.failed_cells = result.failed_cells;
  return phase;
}

/// Empties an entry directory (creating it if needed) so a "cold" phase is
/// genuinely cold even across bench re-runs.
void PurgeStoreDir(const std::string& dir) {
  core::SolveStore store(dir);
  for (std::uint64_t key : store.DiskKeys()) {
    std::remove(store.EntryPath(key).c_str());
  }
}

/// Header plus sorted data rows: the thread-count-independent canonical
/// image of a streamed cell CSV (rows land in completion order; the row
/// set is deterministic).
std::string CanonicalCsv(const std::string& path) {
  std::ifstream in(path);
  ACS_REQUIRE(in.good(), "cannot reopen cell csv: " + path);
  std::string line;
  std::string header;
  std::vector<std::string> rows;
  if (std::getline(in, line)) {
    header = line;
  }
  while (std::getline(in, line)) {
    rows.push_back(line);
  }
  std::sort(rows.begin(), rows.end());
  std::ostringstream out;
  out << header << '\n';
  for (const std::string& row : rows) {
    out << row << '\n';
  }
  return out.str();
}

}  // namespace

int main(int argc, char** argv) {
  bench::SweepConfig config;
  config.tasksets = 3;
  config.hyper_periods = 40;
  config.methods = "acs,acs-scenario,wcs";
  config.baseline = "acs";
  config.scenarios = "iid-normal,bursty";
  bench::FleetFlags fleet;  // --replicates and --sigmas only (no cores)
  fleet.sigmas = "5,8";
  std::string overlap_flag = "11";

  util::ArgParser parser("bench_cache_warmboot",
                         "persistent solve-cache warm-boot bench: cold vs "
                         "warm-boot vs partial-overlap");
  config.Register(parser);
  fleet.Register(parser, config);
  parser.AddString("overlap-sigmas", &overlap_flag,
                   "extra sigma divisors appended for the partial-overlap "
                   "phases");
  try {
    if (!parser.Parse(argc, argv)) {
      return 0;
    }
    // Each phase writes its own cache_warmboot_<phase>.csv, so the shared
    // output flags would be silently dropped: reject them instead.
    if (!config.csv.empty() || !config.cell_csv.empty()) {
      throw util::InvalidArgumentError(
          "bench_cache_warmboot writes cache_warmboot_<phase>.csv per phase; "
          "--csv and --cell-csv are not supported");
    }
    // The phases open their own writable stores over the phase dirs; a
    // config-level store on the same dir would deadlock on the writer LOCK,
    // so --cache-dir names the bench's *root* instead of a shared store.
    const std::string cache_root =
        config.cache_dir.empty() ? "cache_warmboot.dir" : config.cache_dir;
    config.cache_dir.clear();
    config.Finalize();

    // Persist hit/miss deltas need a metrics registry; install one for the
    // bench's lifetime unless the telemetry flags already did.
    std::unique_ptr<obs::MetricsRegistry> own_metrics;
    if (obs::ActiveMetrics() == nullptr) {
      own_metrics = std::make_unique<obs::MetricsRegistry>();
      obs::InstallMetrics(own_metrics.get());
    }

    const std::vector<double> sigmas = fleet.SigmaList();
    std::vector<double> overlap_sigmas = sigmas;
    for (double extra :
         bench::ParsePositiveDoubleList("overlap-sigmas", overlap_flag)) {
      overlap_sigmas.push_back(extra);
    }

    const model::LinearDvsModel cpu = workload::DefaultModel();
    workload::RandomTaskSetOptions gen;
    gen.num_tasks = 6;
    gen.bcec_wcec_ratio = 0.3;
    gen.utilization = 0.7;
    gen.max_sub_instances = 350;
    const runner::TaskSetSource source =
        runner::RandomSource("warmboot", gen, config.tasksets);

    const auto make_grid = [&](const std::vector<double>& sigma_axis) {
      runner::ExperimentGrid grid = config.MakeGrid(cpu, {source});
      grid.sigma_divisors = sigma_axis;
      return grid;
    };
    const runner::ExperimentGrid base_grid = make_grid(sigmas);
    const runner::ExperimentGrid overlap_grid = make_grid(overlap_sigmas);

    const std::string primary_dir = cache_root + "/primary";
    const std::string overlap_dir = cache_root + "/overlap";
    PurgeStoreDir(primary_dir);
    PurgeStoreDir(overlap_dir);

    std::cout << "Solve-cache warm-boot bench (" << config.tasksets
              << " sets, " << config.hyper_periods << " hyper-periods, "
              << config.ResolvedThreads() << " threads, cache root "
              << cache_root << ")\n\n";

    std::vector<Phase> phases;
    phases.push_back(RunPhase("cold", base_grid, primary_dir,
                              "cache_warmboot_cold.csv", config));
    phases.push_back(RunPhase("warm-boot", base_grid, primary_dir,
                              "cache_warmboot_warm.csv", config));
    phases.push_back(RunPhase("overlap-cold", overlap_grid, overlap_dir,
                              "cache_warmboot_overlap_cold.csv", config));
    phases.push_back(RunPhase("overlap-warm", overlap_grid, primary_dir,
                              "cache_warmboot_overlap_warm.csv", config));
    const Phase& cold = phases[0];
    const Phase& warm = phases[1];
    const Phase& overlap_cold = phases[2];
    const Phase& overlap_warm = phases[3];

    const bool byte_identical =
        CanonicalCsv(cold.csv_path) == CanonicalCsv(warm.csv_path);
    const double speedup_warm =
        warm.wall_ms > 0.0 ? cold.wall_ms / warm.wall_ms : 0.0;
    const double speedup_overlap = overlap_warm.wall_ms > 0.0
                                       ? overlap_cold.wall_ms /
                                             overlap_warm.wall_ms
                                       : 0.0;

    util::TextTable table({"phase", "wall ms", "cells", "failed", "hits",
                           "misses", "rejects", "written"});
    for (const Phase& phase : phases) {
      table.AddRow({phase.label, util::FormatDouble(phase.wall_ms, 1),
                    std::to_string(phase.cells),
                    std::to_string(phase.failed_cells),
                    std::to_string(phase.persist.hits),
                    std::to_string(phase.persist.misses),
                    std::to_string(phase.persist.rejects),
                    std::to_string(phase.entries_written)});
    }
    std::cout << table.Render() << "\n";
    std::cout << "warm-boot speedup:  " << util::FormatDouble(speedup_warm, 2)
              << "x\noverlap speedup:    "
              << util::FormatDouble(speedup_overlap, 2)
              << "x\ncold vs warm CSV:   "
              << (byte_identical ? "byte-identical" : "MISMATCH") << "\n";

    // Restore the flag text so the run record names the real cache root.
    config.cache_dir = cache_root;
    if (!config.bench_json.empty()) {
      util::JsonWriter json;
      json.BeginObject();
      json.Key("bench").Value(std::string("bench_cache_warmboot"));
      json.Key("schema").Value(std::int64_t{1});
      bench::WriteRecordJson(json, config.Record());
      json.Key("phases").BeginArray();
      for (const Phase& phase : phases) {
        json.BeginObject();
        json.Key("label").Value(phase.label);
        json.Key("wall_ms").Value(phase.wall_ms);
        json.Key("cells").Value(static_cast<std::uint64_t>(phase.cells));
        json.Key("failed_cells")
            .Value(static_cast<std::uint64_t>(phase.failed_cells));
        json.Key("persist_hits").Value(phase.persist.hits);
        json.Key("persist_misses").Value(phase.persist.misses);
        json.Key("persist_rejects").Value(phase.persist.rejects);
        json.Key("entries_written")
            .Value(static_cast<std::uint64_t>(phase.entries_written));
        json.EndObject();
      }
      json.EndArray();
      json.Key("cold_wall_ms").Value(cold.wall_ms);
      json.Key("warm_wall_ms").Value(warm.wall_ms);
      json.Key("overlap_cold_wall_ms").Value(overlap_cold.wall_ms);
      json.Key("overlap_warm_wall_ms").Value(overlap_warm.wall_ms);
      json.Key("speedup_warm").Value(speedup_warm);
      json.Key("speedup_overlap").Value(speedup_overlap);
      json.Key("warm_persist_hits").Value(warm.persist.hits);
      json.Key("byte_identical").Value(byte_identical);
      json.EndObject();
      std::ofstream out(config.bench_json);
      ACS_REQUIRE(out.good(),
                  "cannot open --bench-json file: " + config.bench_json);
      out << json.str() << '\n';
      std::cout << "bench json written to " << config.bench_json << "\n";
    }

    config.WriteRunArtifacts();
    if (own_metrics != nullptr) {
      obs::InstallMetrics(nullptr);
    }

    if (!byte_identical) {
      std::cerr << "error: cold and warm-boot cell CSVs differ\n";
      return 1;
    }
    return 0;
  } catch (const util::Error& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 1;
  }
}
