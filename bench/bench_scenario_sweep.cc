// Execution-time scenario sweep: scenario x sigma x schedule method x cores.
//
// The paper's headline numbers are measured under one stochastic process —
// i.i.d. truncated-normal per-job cycles — which is the easiest regime for
// average-case-aware DVS: every job is an independent draw around ACEC, so
// the offline ACS plan is unbiased and the online reclamation sees steady
// slack.  Real workloads are burstier (Berten et al., "Managing Varying
// Worst Case Execution Times on DVS Platforms"): modal cache behaviour,
// sticky heavy phases, job-to-job correlation and heavy-tailed stragglers
// all starve or concentrate the slack stream.  This bench sweeps every
// registered execution-time scenario against the ACS/WCS/greedy-reclaim
// arms on single-core and 4-core fleets, with paired draws per cell (the
// scenario axis shares both the task-set draw and the workload-seed label,
// runner/experiment_grid.h), so the scenario column isolates the process
// itself.
//
// Reading: ACS's edge over WCS holds across processes but narrows when the
// realised mean shifts away from ACEC (bimodal/bursty heavy phases) and
// when draws correlate (less fresh slack per job); greedy-reclaim, which
// plans at WCEC, gains the most from heavy-tailed near-BCEC bulk.
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "util/error.h"
#include "util/strings.h"
#include "workload/presets.h"
#include "workload/scenario.h"

namespace {

constexpr const char* kDefaultScenarios =
    "iid-normal,bimodal,bursty,heavy-tail,correlated,trace";

}  // namespace

int main(int argc, char** argv) {
  using namespace dvs;
  bench::SweepConfig config;
  config.tasksets = 4;
  config.hyper_periods = 50;
  config.methods = "acs,wcs,greedy-reclaim";
  config.scenarios = kDefaultScenarios;
  bench::FleetFlags fleet;
  fleet.cores = "1,4";
  fleet.sigmas = "6,10";
  std::string trace_csv;

  util::ArgParser parser("bench_scenario_sweep",
                         "execution-time scenario sweep: scenario x sigma x "
                         "method x cores");
  config.Register(parser);
  fleet.Register(parser, config);
  parser.AddString("trace-csv", &trace_csv,
                   "load this per-job fraction CSV as scenario "
                   "\"trace-file\" (appended to the default scenario list)");
  try {
    if (!parser.Parse(argc, argv)) {
      return 0;
    }

    // A custom registry carries the optional loaded trace on top of the
    // built-ins; it must outlive every grid run below.
    workload::ScenarioRegistry registry;
    workload::RegisterBuiltinScenarios(registry);
    if (!trace_csv.empty()) {
      registry.Register("trace-file",
                        "trace replay loaded from " + trace_csv,
                        workload::LoadTraceScenario(trace_csv));
      if (config.scenarios == kDefaultScenarios) {
        config.scenarios += ",trace-file";
      }
    }
    config.Finalize();

    const std::vector<double> sigmas = fleet.SigmaList();
    const std::vector<int> core_counts = fleet.CoreCounts();
    const std::vector<std::string> scenario_names = config.ScenarioList();

    const model::LinearDvsModel cpu = workload::DefaultModel();

    std::cout << "Execution-time scenario sweep ("
              << util::FormatPercent(fleet.per_core_utilization)
              << " per core, " << config.tasksets << " sets/point, "
              << config.ResolvedThreads() << " threads)\n\n";

    util::TextTable table({"cores", "scenario", "ACS fleet power",
                           "ACS vs WCS", "misses", "failed"});
    util::CsvTable csv({"cores", "scenario", "acs_fleet_power",
                        "improvement_mean", "improvement_stddev",
                        "deadline_misses", "failed_cells"});

    for (int m : core_counts) {
      runner::ExperimentGrid grid = config.MakeGrid(
          cpu, {fleet.Source(m, config.tasksets)},
          static_cast<std::uint64_t>(m));
      grid.core_counts = {m};
      grid.scenario_registry = &registry;
      fleet.Apply(config, grid);
      const std::size_t baseline = grid.BaselineIndex();
      const std::size_t method = bench::FirstNonBaseline(grid);

      struct ScenarioAgg {
        stats::OnlineStats power;
        stats::OnlineStats improvement;
        std::int64_t misses = 0;
        std::size_t failed = 0;
      };
      std::vector<ScenarioAgg> aggs(scenario_names.size());
      bench::RunScenarioSplit(
          grid, sigmas, config, "cores-" + std::to_string(m),
          [&](const runner::CellResult& cell, std::size_t s) {
            ScenarioAgg& agg = aggs[s];
            if (!cell.ok()) {
              ++agg.failed;
              return;
            }
            // Multi-core (or idle-floor) cells report energy/ms already;
            // plain single-core cells report per hyper-period — normalise
            // so the column compares across the cores axis.
            double cell_power = cell.outcomes[method].measured_energy;
            if (!grid.MultiCore()) {
              cell_power /= static_cast<double>(cell.hyper_period);
            }
            agg.power.Add(cell_power);
            agg.improvement.Add(cell.ImprovementOver(method, baseline));
            for (const core::MethodOutcome& outcome : cell.outcomes) {
              agg.misses += outcome.deadline_misses;
            }
          });

      for (std::size_t s = 0; s < scenario_names.size(); ++s) {
        const ScenarioAgg& agg = aggs[s];
        const bool has_data = agg.improvement.count() > 0;
        table.AddRow(
            {std::to_string(m), scenario_names[s],
             has_data ? util::FormatDouble(agg.power.mean(), 3) : "n/a",
             has_data ? util::FormatPercent(agg.improvement.mean()) : "n/a",
             std::to_string(agg.misses), std::to_string(agg.failed)});
        csv.NewRow()
            .Add(m)
            .Add(scenario_names[s])
            .Add(has_data ? agg.power.mean() : 0.0, 6)
            .Add(has_data ? agg.improvement.mean() : 0.0, 6)
            .Add(has_data ? agg.improvement.stddev() : 0.0, 6)
            .Add(agg.misses)
            .Add(agg.failed);
      }
    }
    bench::Emit(table, csv, config);
    std::cout << "\nreading: deadline misses stay 0 under every scenario "
                 "(the [BCEC, WCEC] clamp keeps feasibility intact); the "
                 "ACS-vs-WCS margin is the scenario's reclaimable-slack "
                 "signature\n";
    return 0;
  } catch (const util::Error& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 1;
  }
}
