// Ablation: why the runtime gates each sub-instance at its segment start.
//
// The greedy dispatcher refuses to start a sub-instance before its segment
// (its release): the static plan assigns the pre-release window to *other*
// tasks, and slack is handed to the next sub-instance in the total order —
// the premise of the paper's constraint (11).  The "eager" variant removes
// that gate: a task rolls straight into its next segment's budget at a
// stretched voltage, hogging windows the plan reserved for lower-priority
// tasks.  This bench measures both: the eager variant sometimes saves a
// little energy and sometimes MISSES DEADLINES — which is the point.
//
// Runs as one runner::RunGrid over a custom method registry: the
// "acs-eager" arm shares the cell's cached ACS solve with the "acs" arm and
// both see identical workload realisations, so the energy delta isolates
// the dispatch gate alone.
#include <iostream>
#include <memory>

#include "bench_common.h"
#include "core/method_registry.h"
#include "sim/policy.h"
#include "util/error.h"
#include "util/strings.h"
#include "workload/presets.h"
#include "workload/random_taskset.h"

namespace {

/// ACS schedule dispatched WITHOUT the segment gate (unsafe on purpose).
class AcsEagerMethod final : public dvs::core::ScheduleMethod {
 public:
  dvs::core::MethodPlan Plan(dvs::core::MethodContext& context) const override {
    const dvs::core::ScheduleResult& acs = context.Acs();
    return dvs::core::MethodPlan{
        acs.schedule,
        dvs::sim::GreedyReclaimPolicy(context.dvs(),
                                      /*allow_early_start=*/true),
        acs.predicted_energy, acs.used_fallback};
  }
};

}  // namespace

int main(int argc, char** argv) {
  using namespace dvs;
  bench::SweepConfig config;
  config.tasksets = 8;
  config.methods = "acs,acs-eager";
  config.baseline = "acs";
  util::ArgParser parser("bench_ablation_policy",
                         "segment gating vs eager early-start dispatch");
  config.Register(parser);
  try {
    if (!parser.Parse(argc, argv)) {
      return 0;
    }
    config.Finalize();

    core::MethodRegistry registry;
    core::RegisterBuiltins(registry);
    registry.Register("acs-eager",
                      "ACS schedule + eager early-start dispatch (unsafe)",
                      std::make_unique<AcsEagerMethod>());

    const model::LinearDvsModel cpu = workload::DefaultModel();
    workload::RandomTaskSetOptions gen;
    gen.num_tasks = 6;
    gen.bcec_wcec_ratio = 0.3;
    runner::ExperimentGrid grid = config.MakeGrid(
        cpu, {runner::RandomSource("random-6", gen, config.tasksets)});

    std::cout << "Ablation: dispatch gating (6 tasks, ratio 0.3, "
              << config.tasksets << " sets, ACS schedules, "
              << config.ResolvedThreads() << " threads)\n\n";

    const runner::GridResult result =
        bench::RunGridTimed(grid, registry, config, "policy-grid");

    util::TextTable table({"dispatch policy", "mean energy",
                           "deadline misses"});
    util::CsvTable csv({"policy", "mean_energy", "deadline_misses"});
    for (std::size_t m = 0; m < grid.methods.size(); ++m) {
      const runner::MethodAggregate aggregate = result.Aggregate(grid, m);
      const bool eager = grid.methods[m] == "acs-eager";
      const std::string label =
          eager ? "acs-eager: no gate (unsafe)"
                : grid.methods[m] + ": gated at segment start";
      table.AddRow({label,
                    util::FormatDouble(aggregate.measured_energy.mean(), 1),
                    std::to_string(aggregate.deadline_misses)});
      csv.NewRow()
          .Add(grid.methods[m])
          .Add(aggregate.measured_energy.mean(), 3)
          .Add(aggregate.deadline_misses);
    }
    bench::Emit(table, csv, config);
    std::cout << "\nreading: gating costs little energy and is what makes "
                 "the offline worst-case guarantee hold at runtime; the "
                 "eager variant breaks the planned interleaving\n";
    return 0;
  } catch (const util::Error& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 1;
  }
}
