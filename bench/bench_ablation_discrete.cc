// Ablation: discrete voltage levels.
//
// The paper assumes a continuously variable voltage.  Real processors expose
// a handful of operating points; the runtime then rounds every requested
// voltage *up* to the next level (deadlines keep holding, energy rises).
// This bench sweeps the number of evenly spaced levels.
//
// Runs as one runner::RunGrid over a custom method registry: for every
// level count L the "acs-dL"/"wcs-dL" arms reuse the cell's cached
// continuous-model solves (schedules are computed on the continuous model)
// and dispatch through a quantising runtime policy, so all arms — including
// the continuous references — face identical task sets and workload
// realisations.
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/method_registry.h"
#include "sim/policy.h"
#include "util/error.h"
#include "util/strings.h"
#include "workload/presets.h"
#include "workload/random_taskset.h"

namespace {

/// Continuous-model ACS/WCS schedule dispatched through a runtime that
/// quantises every requested voltage up to the next discrete level.
class QuantisedMethod final : public dvs::core::ScheduleMethod {
 public:
  QuantisedMethod(std::shared_ptr<const dvs::model::DvsModel> runtime,
                  bool acs)
      : runtime_(std::move(runtime)), acs_(acs) {}

  dvs::core::MethodPlan Plan(dvs::core::MethodContext& context) const override {
    const dvs::core::ScheduleResult& solve =
        acs_ ? context.Acs() : context.Wcs();
    return dvs::core::MethodPlan{
        solve.schedule,
        dvs::sim::GreedyReclaimPolicy(*runtime_),
        solve.predicted_energy, solve.used_fallback};
  }

 private:
  std::shared_ptr<const dvs::model::DvsModel> runtime_;
  bool acs_;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace dvs;
  const std::vector<int> level_counts = {4, 8, 16, 32};

  bench::SweepConfig config;
  config.tasksets = 5;
  {
    // Default method list: the continuous ACS reference (also the
    // improvement baseline — the continuous WCS arm would be simulated
    // without ever being read) plus every level pair.
    std::vector<std::string> names = {"acs"};
    for (int levels : level_counts) {
      names.push_back("acs-d" + std::to_string(levels));
      names.push_back("wcs-d" + std::to_string(levels));
    }
    config.methods = util::Join(names, ",");
  }
  config.baseline = "acs";
  util::ArgParser parser("bench_ablation_discrete",
                         "continuous vs discrete voltage levels");
  config.Register(parser);
  try {
    if (!parser.Parse(argc, argv)) {
      return 0;
    }
    config.Finalize();

    const auto continuous =
        std::make_shared<model::LinearDvsModel>(workload::DefaultModel());

    core::MethodRegistry registry;
    core::RegisterBuiltins(registry);
    for (int levels : level_counts) {
      const auto runtime = std::make_shared<model::DiscreteDvsModel>(
          continuous,
          model::DiscreteDvsModel::EvenLevels(*continuous, levels));
      const std::string suffix = "-d" + std::to_string(levels);
      registry.Register("acs" + suffix,
                        "ACS schedule, runtime quantised to " +
                            std::to_string(levels) + " levels",
                        std::make_unique<QuantisedMethod>(runtime, true));
      registry.Register("wcs" + suffix,
                        "WCS schedule, runtime quantised to " +
                            std::to_string(levels) + " levels",
                        std::make_unique<QuantisedMethod>(runtime, false));
    }

    workload::RandomTaskSetOptions gen;
    gen.num_tasks = 6;
    gen.bcec_wcec_ratio = 0.3;
    runner::ExperimentGrid grid = config.MakeGrid(
        *continuous, {runner::RandomSource("random-6", gen, config.tasksets)});

    std::cout << "Ablation: voltage quantisation (6 tasks, ratio 0.3, "
              << config.tasksets << " sets, " << config.ResolvedThreads()
              << " threads; schedules computed on the continuous model, "
                 "runtime quantises up)\n\n";

    const runner::GridResult result =
        bench::RunGridTimed(grid, registry, config, "discrete-grid");

    // Method name -> grid index, for looking up each level's pair.
    const auto method_index = [&grid](const std::string& name) {
      for (std::size_t m = 0; m < grid.methods.size(); ++m) {
        if (grid.methods[m] == name) {
          return static_cast<std::int64_t>(m);
        }
      }
      return static_cast<std::int64_t>(-1);
    };

    util::TextTable table({"levels", "ACS energy vs continuous",
                           "improvement vs WCS", "misses"});
    util::CsvTable csv({"levels", "acs_energy_ratio", "improvement_mean",
                        "deadline_misses"});

    const std::int64_t acs_cont = method_index("acs");
    ACS_REQUIRE(acs_cont >= 0, "--methods must keep the continuous \"acs\" "
                               "reference arm");
    const double continuous_acs_energy =
        result.Aggregate(grid, static_cast<std::size_t>(acs_cont))
            .measured_energy.mean();

    for (int levels : level_counts) {
      const std::string suffix = "-d" + std::to_string(levels);
      const std::int64_t acs = method_index("acs" + suffix);
      const std::int64_t wcs = method_index("wcs" + suffix);
      if (acs < 0 || wcs < 0) {
        continue;  // level pair deselected via --methods
      }
      const std::size_t acs_m = static_cast<std::size_t>(acs);
      const std::size_t wcs_m = static_cast<std::size_t>(wcs);

      stats::OnlineStats improvement;
      std::int64_t misses = 0;
      for (const runner::CellResult& cell : result.cells) {
        if (!cell.ok()) {
          continue;
        }
        improvement.Add(cell.ImprovementOver(acs_m, wcs_m));
        misses += cell.outcomes[acs_m].deadline_misses +
                  cell.outcomes[wcs_m].deadline_misses;
      }
      const double acs_energy =
          result.Aggregate(grid, acs_m).measured_energy.mean();
      const double ratio = continuous_acs_energy > 0.0
                               ? acs_energy / continuous_acs_energy
                               : 1.0;
      table.AddRow({std::to_string(levels),
                    util::FormatDouble(ratio, 3) + "x",
                    util::FormatPercent(improvement.mean()),
                    std::to_string(misses)});
      csv.NewRow()
          .Add(levels)
          .Add(ratio, 6)
          .Add(improvement.mean(), 6)
          .Add(misses);
    }
    bench::Emit(table, csv, config);
    std::cout << "\nreading: a handful of levels already tracks the "
                 "continuous model closely; quantising up preserves every "
                 "deadline\n";
    return 0;
  } catch (const util::Error& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 1;
  }
}
