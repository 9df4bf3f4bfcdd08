// Scenario-conditioned planning sweep: scenario x planning arm x sigma x
// cores.
//
// The scenario sweep (bench_scenario_sweep) showed the ACS-vs-WCS margin is
// a property of the execution-time process — widest under heavy-tail,
// narrowest under trace/correlated — while the ACS NLP kept planning at the
// paper's fixed ACEC point regardless.  This bench closes the loop: it runs
// the scenario-conditioned arms (acs-scenario at the calibrated realised
// mean, acs-mixture averaging K calibrated sample vectors —
// core/method_registry.h) against plain acs and wcs on paired draws, per
// scenario and per core count, so every row isolates what conditioning the
// *offline plan* on the realised law buys on top of online reclamation.
//
// Reading: under iid-normal the calibrated mean nearly coincides with ACEC,
// so acs-scenario tracks acs (small either-sign noise); under heavy-tail
// and bimodal the realised mean sits well below ACEC and planning at it
// cuts fleet energy further — the Berten-style win the ROADMAP names.  The
// "vs acs" column is the paired improvement of each planning arm over the
// plain acs baseline; "vs wcs" contextualises it against the paper's
// headline margin.
#include <algorithm>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "util/error.h"
#include "util/strings.h"
#include "workload/presets.h"
#include "workload/random_taskset.h"
#include "workload/scenario.h"

namespace {

constexpr const char* kDefaultScenarios =
    "iid-normal,bimodal,bursty,heavy-tail,correlated,trace";
constexpr const char* kDefaultMethods =
    "acs,acs-scenario,acs-mixture,wcs";

}  // namespace

int main(int argc, char** argv) {
  using namespace dvs;
  bench::SweepConfig config;
  config.tasksets = 4;
  config.hyper_periods = 50;
  config.methods = kDefaultMethods;
  config.baseline = "acs";
  config.scenarios = kDefaultScenarios;
  std::string sigmas_flag = "6,10";
  std::string cores_flag = "1,4";
  double idle_power = 0.05;
  double per_core_utilization = 0.7;

  util::ArgParser parser("bench_scenario_planning",
                         "scenario-conditioned planning sweep: scenario x "
                         "planning arm x sigma x cores");
  config.Register(parser);
  parser.AddInt("replicates", &config.tasksets,
                "random task sets per grid point (alias of --tasksets)");
  parser.AddString("sigmas", &sigmas_flag,
                   "comma-separated sigma divisors (sigma-insensitive "
                   "scenarios run once at the first value)");
  parser.AddString("cores", &cores_flag, "comma-separated core counts");
  parser.AddDouble("idle-power", &idle_power,
                   "always-on energy/ms floor per powered core");
  parser.AddDouble("per-core-utilization", &per_core_utilization,
                   "worst-case utilisation target per core");
  try {
    if (!parser.Parse(argc, argv)) {
      return 0;
    }
    config.Finalize();

    const auto cell_sink = config.OpenCellSink();
    const std::vector<double> sigmas =
        bench::ParsePositiveDoubleList("sigmas", sigmas_flag);
    const std::vector<int> core_counts =
        bench::ParsePositiveIntList("cores", cores_flag);
    const std::vector<std::string> scenario_names = config.ScenarioList();
    const std::vector<std::string> method_names = config.MethodList();

    const workload::ScenarioRegistry& registry =
        workload::ScenarioRegistry::Builtin();
    const model::LinearDvsModel cpu = workload::DefaultModel();

    std::cout << "Scenario-conditioned planning sweep ("
              << util::FormatPercent(per_core_utilization) << " per core, "
              << config.tasksets << " sets/point, K="
              << config.planning.mixture_samples
              << " mixture, " << config.ResolvedThreads() << " threads)\n\n";

    util::TextTable table({"cores", "scenario", "arm", "fleet power",
                           "vs acs", "vs wcs", "misses", "failed"});
    util::CsvTable csv({"cores", "scenario", "arm", "fleet_power_mean",
                        "vs_acs_mean", "vs_acs_stddev", "vs_wcs_mean",
                        "deadline_misses", "failed_cells"});

    // Sigma-insensitive scenarios would duplicate cells per sigma (see
    // bench_scenario_sweep); run them in a sibling grid pinned to the first
    // sigma.  Both grids of one m share master seed / sources / utilisation,
    // so their SetIndex-keyed streams stay paired across the split.
    std::vector<std::string> sigma_scenarios;
    std::vector<std::string> fixed_scenarios;
    for (const std::string& name : scenario_names) {
      (registry.Get(name).UsesSigmaDivisor() ? sigma_scenarios
                                             : fixed_scenarios)
          .push_back(name);
    }

    for (int m : core_counts) {
      workload::RandomTaskSetOptions gen;
      gen.num_tasks = std::max(6, 3 * m);
      gen.bcec_wcec_ratio = 0.3;
      gen.utilization = per_core_utilization * static_cast<double>(m);
      gen.max_sub_instances = 350;  // per-core scale (pro-rata for m > 1)
      const runner::TaskSetSource source = runner::RandomSource(
          "random-m" + std::to_string(m), gen, config.tasksets);

      struct GridRun {
        runner::ExperimentGrid grid;
        runner::GridResult result;
      };
      std::vector<GridRun> runs;
      const auto run_subset = [&](const std::vector<std::string>& subset,
                                  const std::vector<double>& sigma_axis,
                                  const std::string& label) {
        if (subset.empty()) {
          return;
        }
        runner::ExperimentGrid grid = config.MakeGrid(
            cpu, {source}, static_cast<std::uint64_t>(m));
        grid.core_counts = {m};
        grid.scenarios = subset;
        grid.sigma_divisors = sigma_axis;
        grid.idle_power.power_per_ms = idle_power;
        runner::GridResult result = bench::RunGridTimed(grid, config, label);
        runs.push_back(GridRun{std::move(grid), std::move(result)});
      };
      run_subset(sigma_scenarios, sigmas, "cores-" + std::to_string(m));
      run_subset(fixed_scenarios, {sigmas.front()},
                 "cores-" + std::to_string(m) + "-fixed-sigma");

      // Per (scenario, method): paired aggregates against the acs and wcs
      // rows of the same cell.
      struct ArmAgg {
        stats::OnlineStats power;
        stats::OnlineStats vs_acs;
        stats::OnlineStats vs_wcs;
        std::int64_t misses = 0;
        std::size_t failed = 0;
      };
      std::vector<std::vector<ArmAgg>> aggs(
          scenario_names.size(), std::vector<ArmAgg>(method_names.size()));
      const auto scenario_of = [&](const std::string& name) {
        const auto it = std::find(scenario_names.begin(),
                                  scenario_names.end(), name);
        ACS_REQUIRE(it != scenario_names.end(),
                    "scenario \"" + name + "\" missing from sweep");
        return static_cast<std::size_t>(it - scenario_names.begin());
      };

      for (const GridRun& run : runs) {
        const std::size_t acs_index = run.grid.BaselineIndex();
        // "vs wcs" is contextual and only meaningful when the wcs arm is
        // in the sweep; without it the column reports n/a instead of
        // silently re-labelling some other baseline.
        std::size_t wcs_index = run.grid.methods.size();
        for (std::size_t i = 0; i < run.grid.methods.size(); ++i) {
          if (run.grid.methods[i] == "wcs") {
            wcs_index = i;
          }
        }
        for (const runner::CellResult& cell : run.result.cells) {
          const std::size_t s = scenario_of(
              run.grid.scenarios[cell.coord.scenario_index]);
          for (std::size_t i = 0; i < method_names.size(); ++i) {
            ArmAgg& agg = aggs[s][i];
            if (!cell.ok()) {
              ++agg.failed;
              continue;
            }
            double power = cell.outcomes[i].measured_energy;
            if (!run.grid.MultiCore()) {
              power /= static_cast<double>(cell.hyper_period);
            }
            agg.power.Add(power);
            agg.vs_acs.Add(cell.ImprovementOver(i, acs_index));
            if (wcs_index < run.grid.methods.size()) {
              agg.vs_wcs.Add(cell.ImprovementOver(i, wcs_index));
            }
            agg.misses += cell.outcomes[i].deadline_misses;
          }
        }
      }

      for (std::size_t s = 0; s < scenario_names.size(); ++s) {
        for (std::size_t i = 0; i < method_names.size(); ++i) {
          const ArmAgg& agg = aggs[s][i];
          const bool has_data = agg.power.count() > 0;
          const bool has_wcs = agg.vs_wcs.count() > 0;
          table.AddRow(
              {std::to_string(m), scenario_names[s], method_names[i],
               has_data ? util::FormatDouble(agg.power.mean(), 3) : "n/a",
               has_data ? util::FormatPercent(agg.vs_acs.mean()) : "n/a",
               has_wcs ? util::FormatPercent(agg.vs_wcs.mean()) : "n/a",
               std::to_string(agg.misses), std::to_string(agg.failed)});
          csv.NewRow()
              .Add(m)
              .Add(scenario_names[s])
              .Add(method_names[i])
              .Add(has_data ? agg.power.mean() : 0.0, 6)
              .Add(has_data ? agg.vs_acs.mean() : 0.0, 6)
              .Add(has_data ? agg.vs_acs.stddev() : 0.0, 6)
              .Add(has_wcs ? agg.vs_wcs.mean() : 0.0, 6)
              .Add(agg.misses)
              .Add(agg.failed);
        }
      }
    }
    bench::Emit(table, csv, config);
    std::cout << "\nreading: \"vs acs\" is the paired gain of conditioning "
                 "the offline plan on the realised law — near zero under "
                 "iid-normal (the calibrated mean ~= ACEC), largest under "
                 "heavy-tail/bimodal whose realised mean sits far below "
                 "ACEC; misses stay 0 (planning points are clamped to "
                 "[BCEC, WCEC], so the worst-case envelope is untouched)\n";
    return 0;
  } catch (const util::Error& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 1;
  }
}
