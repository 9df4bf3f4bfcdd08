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
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "util/error.h"
#include "util/strings.h"
#include "workload/presets.h"

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
  bench::FleetFlags fleet;
  fleet.cores = "1,4";
  fleet.sigmas = "6,10";

  util::ArgParser parser("bench_scenario_planning",
                         "scenario-conditioned planning sweep: scenario x "
                         "planning arm x sigma x cores");
  config.Register(parser);
  fleet.Register(parser, config);
  try {
    if (!parser.Parse(argc, argv)) {
      return 0;
    }
    config.Finalize();

    const std::vector<double> sigmas = fleet.SigmaList();
    const std::vector<int> core_counts = fleet.CoreCounts();

    const model::LinearDvsModel cpu = workload::DefaultModel();

    std::cout << "Scenario-conditioned planning sweep ("
              << util::FormatPercent(fleet.per_core_utilization)
              << " per core, "
              << config.tasksets << " sets/point, K="
              << config.planning.mixture_samples
              << " mixture, " << config.ResolvedThreads() << " threads)\n\n";

    util::TextTable table({"cores", "scenario", "arm", "fleet power",
                           "vs acs", "vs wcs", "misses", "failed"});
    util::CsvTable csv({"cores", "scenario", "arm", "fleet_power_mean",
                        "vs_acs_mean", "vs_acs_stddev", "vs_wcs_mean",
                        "deadline_misses", "failed_cells"});

    for (int m : core_counts) {
      runner::ExperimentGrid grid = config.MakeGrid(
          cpu, {fleet.Source(m, config.tasksets)},
          static_cast<std::uint64_t>(m));
      grid.core_counts = {m};
      fleet.Apply(config, grid);
      bench::AppendArmRows(grid, m, sigmas, config, "wcs", table, csv);
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
