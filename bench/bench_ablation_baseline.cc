// Ablation: baseline strength.
//
// The paper reports up to ~60% improvement of ACS over "WCS".  Our WCS —
// the WCEC-optimal static schedule *plus* full greedy online reclamation —
// is a strong baseline that already sits near the energy floor, capping the
// measurable gap (see EXPERIMENTS.md).  This bench brackets the claim by
// measuring ACS against registry baselines of decreasing strength:
//   1. wcs            WCS + greedy reclamation (our default, strongest)
//   2. wcs-static     WCS offline voltages, no online slack pass-through
//   3. static-vmax    no DVS at all (always Vmax)
// and against the uniform average-utilisation energy floor.  One
// runner::RunGrid evaluates all four methods per cell on identical
// workload realisations.
#include <iostream>

#include "bench_common.h"
#include "fps/expansion.h"
#include "model/workload.h"
#include "util/error.h"
#include "util/strings.h"
#include "workload/presets.h"
#include "workload/random_taskset.h"

int main(int argc, char** argv) {
  using namespace dvs;
  bench::SweepConfig config;
  config.tasksets = 6;
  util::ArgParser parser("bench_ablation_baseline",
                         "ACS improvement vs baselines of varying strength");
  config.Register(parser);
  try {
    if (!parser.Parse(argc, argv)) {
      return 0;
    }
    config.Finalize();

    const model::LinearDvsModel cpu = workload::DefaultModel();
    const double ratio = 0.1;  // the paper's high-flexibility point
    const int num_tasks = 8;

    workload::RandomTaskSetOptions gen;
    gen.num_tasks = num_tasks;
    gen.bcec_wcec_ratio = ratio;
    runner::ExperimentGrid grid = config.MakeGrid(
        cpu, {runner::RandomSource("random-8", gen, config.tasksets)});
    // The comparison set IS the subject of this ablation: the four arms are
    // fixed and the indices below depend on this order.
    const std::vector<std::string> fixed_methods = {"acs", "wcs", "wcs-static",
                                                    "static-vmax"};
    if (config.methods != bench::SweepConfig{}.methods ||
        config.baseline != bench::SweepConfig{}.baseline) {
      std::cerr << "note: this ablation always evaluates "
                << util::Join(fixed_methods, ",")
                << " with baseline wcs; --methods/--baseline are ignored\n";
    }
    grid.methods = fixed_methods;
    grid.baseline = "wcs";

    const runner::GridResult result =
        bench::RunGridTimed(grid, config, "baseline-grid");

    constexpr std::size_t kAcs = 0;
    stats::OnlineStats vs_wcs_greedy;
    stats::OnlineStats vs_wcs_static;
    stats::OnlineStats vs_vmax;
    stats::OnlineStats headroom;  // ACS energy over the uniform floor

    for (const runner::CellResult& cell : result.cells) {
      if (!cell.ok()) {
        continue;
      }
      vs_wcs_greedy.Add(cell.ImprovementOver(kAcs, 1));
      vs_wcs_static.Add(cell.ImprovementOver(kAcs, 2));
      vs_vmax.Add(cell.ImprovementOver(kAcs, 3));

      // Uniform average-utilisation floor: all average cycles at the
      // voltage that sustains the average load.  The grid materialises the
      // cell's task set deterministically for the post-hoc computation.
      const model::TaskSet set = grid.MaterializeTaskSet(cell.coord);
      const double avg_util = set.AverageUtilization(cpu);
      const double v_floor =
          cpu.ClampVoltage(cpu.VoltageForSpeed(avg_util * cpu.MaxSpeed()));
      double avg_cycles_per_hp = 0.0;
      for (const model::Task& t : set.tasks()) {
        avg_cycles_per_hp += t.acec * static_cast<double>(
                                          set.hyper_period() / t.period);
      }
      const double floor_energy = cpu.Energy(v_floor, avg_cycles_per_hp);
      headroom.Add(cell.outcomes[kAcs].measured_energy / floor_energy);
    }

    if (result.failed_cells > 0) {
      std::cerr << "WARNING: " << result.failed_cells << " of "
                << grid.CellCount() << " cells failed and were skipped\n";
    }
    ACS_REQUIRE(vs_wcs_greedy.count() > 0,
                "every grid cell failed; nothing to report");

    util::TextTable table({"ACS improvement vs", "mean", "min", "max"});
    const auto add = [&table](const char* name, const stats::OnlineStats& s) {
      table.AddRow({name, util::FormatPercent(s.mean()),
                    util::FormatPercent(s.min()),
                    util::FormatPercent(s.max())});
    };
    std::cout << "Ablation: baseline strength (" << num_tasks
              << " tasks, ratio " << ratio << ", " << config.tasksets
              << " sets, " << config.ResolvedThreads() << " threads)\n\n";
    add("WCS + greedy reclamation", vs_wcs_greedy);
    add("WCS static-only (no reclamation)", vs_wcs_static);
    add("no DVS (always Vmax)", vs_vmax);
    std::cout << table.Render();
    std::cout << "\nACS energy over the uniform average-utilisation floor: "
              << util::FormatDouble(headroom.mean(), 3)
              << "x (1.0 = unattainable lower bound)\n";
    std::cout << "reading: the paper's ~60% magnitude is reachable against "
                 "the weaker baselines; against WCS+reclamation the floor "
                 "caps the possible gap\n";

    util::CsvTable csv({"baseline", "improvement_mean", "improvement_min",
                        "improvement_max"});
    csv.NewRow().Add("wcs_greedy").Add(vs_wcs_greedy.mean(), 6)
        .Add(vs_wcs_greedy.min(), 6).Add(vs_wcs_greedy.max(), 6);
    csv.NewRow().Add("wcs_static").Add(vs_wcs_static.mean(), 6)
        .Add(vs_wcs_static.min(), 6).Add(vs_wcs_static.max(), 6);
    csv.NewRow().Add("vmax").Add(vs_vmax.mean(), 6).Add(vs_vmax.min(), 6)
        .Add(vs_vmax.max(), 6);
    if (!config.csv.empty()) {
      csv.WriteFile(config.csv);
    }
    config.WriteBenchJson();
    config.WriteRunArtifacts();
    return 0;
  } catch (const util::Error& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 1;
  }
}
