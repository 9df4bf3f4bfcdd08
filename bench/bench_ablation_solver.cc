// Ablation: reduced formulation vs the paper-faithful full NLP.
//
// The reduced model (end-times + budget splits, everything else derived)
// carries 1-3 variables per sub-instance; the paper's original variable set
// carries six plus nonlinear coupling constraints.  This bench compares
// solution quality (predicted average energy) and wall-clock cost on small
// systems where both are tractable.
//
// Runs through runner::RunGrid with a custom registry arm, "acs-full-nlp",
// that solves the paper-faithful model warm-started from the cell's cached
// WCS solve.  Each (system, arm) pair is one timed grid run over the same
// master seed, so both arms solve identical task sets; both report the
// *average-scenario replay energy* of their final schedule, which makes the
// quality comparison apples to apples.
#include <iostream>
#include <memory>

#include "bench_common.h"
#include "core/formulation.h"
#include "core/full_nlp.h"
#include "core/method_registry.h"
#include "sim/policy.h"
#include "util/error.h"
#include "util/strings.h"
#include "workload/motivation.h"
#include "workload/presets.h"
#include "workload/random_taskset.h"

namespace {

/// The paper-faithful six-variable NLP, warm-started from the cached WCS
/// solve; predicted energy is the final schedule's average-scenario replay
/// (the reduced arm's objective), so both arms report the same quantity.
class FullNlpMethod final : public dvs::core::ScheduleMethod {
 public:
  dvs::core::MethodPlan Plan(dvs::core::MethodContext& context) const override {
    const dvs::core::FullNlp full(context.fps(), context.dvs());
    dvs::core::FullNlpResult result = full.Solve(context.Wcs().schedule);
    const dvs::core::EnergyObjective average(context.fps(), context.dvs(),
                                             dvs::core::Scenario::kAverage);
    const double predicted =
        average.Value(average.PackSchedule(result.schedule));
    return dvs::core::MethodPlan{
        std::move(result.schedule),
        dvs::sim::GreedyReclaimPolicy(context.dvs()),
        predicted, false};
  }
};

}  // namespace

int main(int argc, char** argv) {
  using namespace dvs;
  bench::SweepConfig config;
  config.tasksets = 1;
  // The bench reports *predicted* (offline) energy, so the default of one
  // simulated hyper-period keeps the wall-ms column dominated by the solve
  // cost the two formulations differ in; --hyper-periods raises it.
  config.hyper_periods = 1;
  config.methods = "acs,acs-full-nlp";
  config.baseline = "acs";
  util::ArgParser parser("bench_ablation_solver",
                         "reduced formulation vs paper-faithful full NLP");
  config.Register(parser);
  try {
    if (!parser.Parse(argc, argv)) {
      return 0;
    }
    config.Finalize();

    core::MethodRegistry registry;
    core::RegisterBuiltins(registry);
    registry.Register("acs-full-nlp",
                      "paper-faithful full NLP, WCS warm start",
                      std::make_unique<FullNlpMethod>());

    const model::LinearDvsModel default_cpu = workload::DefaultModel();
    const model::LinearDvsModel motivation_cpu = workload::MotivationModel();

    struct System {
      std::string name;
      runner::TaskSetSource source;
      const model::DvsModel* cpu;
    };
    std::vector<System> systems;
    systems.push_back({"motivation (3 tasks)",
                       runner::FixedSource("motivation",
                                           workload::MotivationTaskSet()),
                       &motivation_cpu});
    for (int n : {3, 4}) {
      workload::RandomTaskSetOptions gen;
      gen.num_tasks = n;
      gen.bcec_wcec_ratio = 0.3;
      gen.max_sub_instances = 60;  // keep the full NLP tractable
      systems.push_back({"random " + std::to_string(n) + "-task",
                         runner::RandomSource("random-" + std::to_string(n),
                                              gen, config.tasksets),
                         &default_cpu});
    }

    std::cout << "Ablation: reduced vs full NLP (energy = predicted "
                 "average-case objective, " << config.ResolvedThreads()
              << " threads)\n\n";

    util::TextTable table({"system", "method", "subs", "predicted E",
                           "wall ms"});
    // The CSV holds results only, so two runs compare byte for byte; the
    // timings are in the table and the --bench-json entries.
    util::CsvTable csv({"system", "method", "sub_instances",
                        "predicted_energy"});

    for (std::size_t s = 0; s < systems.size(); ++s) {
      for (const std::string& method : config.MethodList()) {
        runner::ExperimentGrid grid =
            config.MakeGrid(*systems[s].cpu, {systems[s].source},
                            static_cast<std::uint64_t>(s));
        grid.methods = {method};
        grid.baseline = method;

        // Each arm is timed from scratch: the persistent workspaces are
        // cleared so the full-NLP arm cannot reuse the WCS solve cached by
        // the reduced arm's grid — the wall-ms column is a fair
        // reduced-vs-full comparison, both paying their warm starts.
        config.workspaces->clear();
        // The wall-ms column reports the result-bearing repeat-0 run only
        // (RunGridTimed may re-run the grid --grid-repeats times for the
        // --bench-json cold/warm trajectory).
        const std::size_t first_entry = config.report->entries.size();
        const runner::GridResult result = bench::RunGridTimed(
            grid, registry, config, systems[s].name + "-" + method);
        const double wall_ms = config.report->entries[first_entry].wall_ms;

        stats::OnlineStats predicted;
        stats::OnlineStats subs;
        for (const runner::CellResult& cell : result.cells) {
          if (!cell.ok()) {
            continue;
          }
          predicted.Add(cell.outcomes[0].predicted_energy);
          subs.Add(static_cast<double>(cell.sub_instances));
        }
        ACS_REQUIRE(predicted.count() > 0,
                    "every cell of system \"" + systems[s].name +
                        "\" failed");
        table.AddRow({systems[s].name, method,
                      util::FormatDouble(subs.mean(), 0),
                      util::FormatDouble(predicted.mean(), 1),
                      util::FormatDouble(wall_ms, 1)});
        csv.NewRow()
            .Add(systems[s].name)
            .Add(method)
            .Add(subs.mean(), 0)
            .Add(predicted.mean(), 3);
      }
    }
    bench::Emit(table, csv, config);
    std::cout << "\nreading: both formulations find the same optima on "
                 "small systems; the reduced model is the one that scales "
                 "to the paper's 1000-sub-instance cap\n";
    return 0;
  } catch (const util::Error& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 1;
  }
}
