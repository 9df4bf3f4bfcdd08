// Reference optima for the converged ACS solve: writes the corpus that
// tests/opt_replay_newton_test.cc checks opt::SolveReplay against.
//
//   replay_reference --out=tests/data/replay_reference.csv
//
// The corpus is 20 tiny random single-core sets (2-4 tasks, at most 40
// sub-instances, BCEC/WCEC 0.1 / 0.5 / 0.9 in turn), drawn from fixed
// seeds with workload::DefaultModel.  Each reference is the lowest ACEC
// replay energy over ALM solves at a raised budget (40 outer iterations,
// 5000 inner SPG iterations, feasibility 1e-10) from five worst-case
// feasible starts: the exact WCS schedule, the Vmax-ASAP schedule and three
// of their convex combinations (the worst-case rows are linear, so each is
// feasible).  Every solve is repaired and audited like a production solve.
// The corpus draw lives here and in the test (ReferenceSet); change both
// together and regenerate.
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "core/formulation.h"
#include "core/scheduler.h"
#include "fps/expansion.h"
#include "opt/augmented_lagrangian.h"
#include "sim/engine.h"
#include "sim/static_schedule.h"
#include "stats/rng.h"
#include "util/cli.h"
#include "util/error.h"
#include "workload/presets.h"
#include "workload/random_taskset.h"

namespace {

using namespace dvs;

constexpr int kSets = 20;

model::TaskSet ReferenceSet(int index, const model::DvsModel& dvs) {
  stats::Rng rng(static_cast<std::uint64_t>(5000 + index));
  workload::RandomTaskSetOptions options;
  options.num_tasks = 2 + index % 3;
  options.bcec_wcec_ratio = index % 3 == 0 ? 0.1 : index % 3 == 1 ? 0.5 : 0.9;
  options.max_sub_instances = 40;
  return workload::GenerateRandomTaskSet(options, dvs, rng);
}

/// The raised-budget ALM solve of the ACEC program from `start`; the
/// repaired schedule's replay energy, or +inf when repair rejects it.
double AlmFrom(const fps::FullyPreemptiveSchedule& fps,
               const model::LinearDvsModel& dvs,
               const sim::StaticSchedule& start) {
  const core::EnergyObjective objective(fps, dvs, core::Scenario::kAverage);
  const auto feasible = objective.BuildFeasibleSet();
  const std::vector<opt::LinearConstraint> chain =
      objective.BuildChainConstraints();
  opt::AlmOptions options = core::AcsAlmOptions();
  options.max_outer = 40;
  options.feasibility_tol = 1e-10;
  options.inner.max_iterations = 5000;
  options.inner.tolerance = 1e-10;
  opt::Vector x = objective.PackSchedule(start);
  opt::MinimizeAlm(objective, *feasible, chain, x, options);
  std::vector<double> end_times(fps.sub_count());
  std::vector<double> budgets(fps.sub_count());
  for (std::size_t u = 0; u < fps.sub_count(); ++u) {
    end_times[u] = x[u];
    budgets[u] = objective.BudgetOf(x, u);
  }
  const std::optional<sim::StaticSchedule> repaired =
      core::RepairSchedule(fps, dvs, end_times, budgets);
  return repaired.has_value()
             ? objective.Value(objective.PackSchedule(*repaired))
             : std::numeric_limits<double>::infinity();
}

/// end-times and budgets of (1 - theta) a + theta b.
sim::StaticSchedule Mix(const fps::FullyPreemptiveSchedule& fps,
                        const sim::StaticSchedule& a,
                        const sim::StaticSchedule& b, double theta) {
  std::vector<double> end_times(fps.sub_count());
  std::vector<double> budgets(fps.sub_count());
  for (std::size_t u = 0; u < fps.sub_count(); ++u) {
    end_times[u] = (1.0 - theta) * a.end_time(u) + theta * b.end_time(u);
    budgets[u] = (1.0 - theta) * a.worst_budget(u) + theta * b.worst_budget(u);
  }
  return sim::StaticSchedule(fps, std::move(end_times), std::move(budgets));
}

}  // namespace

int main(int argc, char** argv) {
  std::string out;
  util::ArgParser parser("replay_reference",
                         "multi-start ALM reference optima of the converged "
                         "ACS solve's test corpus");
  parser.AddString("out", &out, "CSV file to write (required)");
  try {
    if (!parser.Parse(argc, argv)) {
      return 0;
    }
    ACS_REQUIRE(!out.empty(), "--out is required");
    const model::LinearDvsModel dvs = workload::DefaultModel();
    std::ofstream csv(out);
    ACS_REQUIRE(csv.good(), "cannot write " + out);
    csv << "set,sub_instances,reference_energy\n";
    for (int index = 0; index < kSets; ++index) {
      // The expansion keeps a reference to its set: keep the set alive.
      const model::TaskSet set = ReferenceSet(index, dvs);
      const fps::FullyPreemptiveSchedule fps(set);
      const sim::StaticSchedule wcs = core::SolveWcs(fps, dvs).schedule;
      const sim::StaticSchedule asap = sim::BuildVmaxAsapSchedule(fps, dvs);
      double best = std::numeric_limits<double>::infinity();
      for (double theta : {0.0, 0.25, 0.5, 0.75, 1.0}) {
        best = std::min(best, AlmFrom(fps, dvs, Mix(fps, wcs, asap, theta)));
      }
      char line[128];
      std::snprintf(line, sizeof(line), "%d,%zu,%.17g\n", index,
                    fps.sub_count(), best);
      csv << line;
      std::cerr << "set " << index << ": " << fps.sub_count()
                << " sub-instances, reference " << best << "\n";
    }
  } catch (const util::Error& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 1;
  }
  return 0;
}
