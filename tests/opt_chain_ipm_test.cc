// Tests for the exact WCS solve: the chain program's convexity, a closed
// form, its equivalence with the reduced WCS problem, and its quality and
// cost against the ALM on a random corpus.
#include "opt/chain_ipm.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/formulation.h"
#include "core/scheduler.h"
#include "fps/expansion.h"
#include "stats/rng.h"
#include "workload/presets.h"
#include "workload/random_taskset.h"

namespace dvs::core {
namespace {

/// The reference: the same WCS problem solved by the ALM, which
/// SolveSchedule always uses.
ScheduleResult AlmWcs(const fps::FullyPreemptiveSchedule& fps,
                      const model::DvsModel& dvs) {
  return SolveSchedule(fps, dvs, Scenario::kWorst);
}

// Midpoint convexity of the objective on random pairs of points of its
// domain (w >= 0, f > s); the linear constraints keep midpoints feasible.
TEST(ChainProgram, ObjectiveIsMidpointConvex) {
  stats::Rng rng(5);
  opt::ChainProblem problem;
  problem.energy_coeff = 0.7;
  const std::size_t n = 6;
  for (int trial = 0; trial < 500; ++trial) {
    opt::ChainSolution a;
    opt::ChainSolution b;
    for (opt::ChainSolution* x : {&a, &b}) {
      x->start.clear();
      x->finish.clear();
      x->budget.clear();
      for (std::size_t u = 0; u < n; ++u) {
        const double s = rng.Uniform(0.0, 10.0);
        x->start.push_back(s);
        x->finish.push_back(s + rng.Uniform(1e-3, 5.0));
        x->budget.push_back(rng.Uniform(0.0, 20.0));
      }
    }
    opt::ChainSolution mid = a;
    for (std::size_t u = 0; u < n; ++u) {
      mid.start[u] = 0.5 * (a.start[u] + b.start[u]);
      mid.finish[u] = 0.5 * (a.finish[u] + b.finish[u]);
      mid.budget[u] = 0.5 * (a.budget[u] + b.budget[u]);
    }
    const double fa = opt::ChainObjective(problem, a);
    const double fb = opt::ChainObjective(problem, b);
    EXPECT_LE(opt::ChainObjective(problem, mid),
              0.5 * (fa + fb) * (1.0 + 1e-12))
        << "trial " << trial;
  }
}

// One task, no preemption: every job runs alone over its whole period at
// the constant speed W / T, clamped up to Vmin, so the optimum is
// jobs * ceff * V^2 * W.
TEST(ChainProgram, SingleTaskMatchesTheClosedForm) {
  const model::LinearDvsModel cpu = workload::DefaultModel();
  for (double wcec : {60.0, 2.0}) {  // above, then below the Vmin floor
    const model::TaskSet set({{"t", 20, wcec, wcec / 2.0, wcec / 4.0}});
    const fps::FullyPreemptiveSchedule fps(set);
    const ScheduleResult wcs = SolveWcs(fps, cpu);
    ASSERT_TRUE(wcs.certificate.has_value());
    EXPECT_LE(wcs.certificate->relative_gap, 1e-6);
    const double v = std::max(cpu.vmin(), wcec / (cpu.k() * 20.0));
    const double expected = static_cast<double>(fps.instance_count()) *
                            cpu.ceff() * v * v * wcec;
    EXPECT_NEAR(wcs.predicted_energy, expected, 1e-6 * expected)
        << "wcec " << wcec;
  }
}

/// A random single-core set of the paper's generator, small enough that
/// the ALM reference solve stays cheap.
model::TaskSet RandomSet(const model::DvsModel& cpu, std::uint64_t seed) {
  stats::Rng rng(seed);
  workload::RandomTaskSetOptions options;
  options.num_tasks = 2 + static_cast<int>(seed % 4);
  options.bcec_wcec_ratio = 0.5;
  options.utilization = 0.5 + 0.1 * static_cast<double>(seed % 4);
  options.max_sub_instances = 40;
  return workload::GenerateRandomTaskSet(options, cpu, rng);
}

// Equivalence with the reduced problem (DESIGN.md §2.2), checked both ways
// on the replay itself: the replay of the ALM's reduced point, read as
// (start, finish, budget), is a feasible chain point of equal energy (so
// the chain optimum is no higher), and the replay of the exact schedule
// costs no more than the chain objective of the solution it came from (so
// the reduced optimum is no higher either).  Every replayed finish lies at
// or after its segment start, so a Vmin-held node never finishes before
// its seg_begin.
TEST(ChainProgram, MatchesTheReducedProblemBothWays) {
  const model::LinearDvsModel cpu = workload::DefaultModel();
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const model::TaskSet set = RandomSet(cpu, seed);
    const fps::FullyPreemptiveSchedule fps(set);
    const EnergyObjective objective(fps, cpu, Scenario::kWorst);
    const ScheduleResult alm = AlmWcs(fps, cpu);
    const ForwardDetail replay =
        objective.Replay(objective.PackSchedule(alm.schedule));
    opt::ChainProblem problem;
    problem.energy_coeff = cpu.ceff() / (cpu.k() * cpu.k());
    opt::ChainSolution point;
    const std::vector<double>& cap = fps.effective_end_bounds();
    double previous_finish = 0.0;
    for (std::size_t u = 0; u < fps.sub_count(); ++u) {
      const double s = replay.start[u];
      const double f = replay.finish[u];
      // The replay executes nothing for budgets below 1e-9 cycles (its
      // finish equals its start); the chain point drops them likewise.
      const double w =
          alm.schedule.worst_budget(u) > 1e-9 ? alm.schedule.worst_budget(u)
                                              : 0.0;
      EXPECT_GE(f, fps.sub(u).seg_begin) << "seed " << seed << " sub " << u;
      EXPECT_GE(s, fps.sub(u).release());
      EXPECT_GE(s, previous_finish);
      EXPECT_LE(f, cap[u] + 1e-9);
      if (w > 1e-6) {
        // Speeds within [k Vmin, k Vmax] up to the rounding of f - s (which
        // swamps the speed of a budget too small to measure this way).
        const double speed = w / (f - s);
        EXPECT_GE(speed, cpu.k() * cpu.vmin() * (1.0 - 1e-6));
        EXPECT_LE(speed, cpu.k() * cpu.vmax() * (1.0 + 1e-6));
      }
      point.start.push_back(s);
      point.finish.push_back(f);
      point.budget.push_back(w);
      previous_finish = f;
    }
    EXPECT_NEAR(opt::ChainObjective(problem, point), replay.total_energy,
                1e-9 * replay.total_energy)
        << "seed " << seed;

    const ScheduleResult exact = SolveWcs(fps, cpu);
    ASSERT_TRUE(exact.certificate.has_value()) << "seed " << seed;
    EXPECT_LE(exact.predicted_energy,
              exact.certificate->dual / (1.0 - 1e-6))
        << "seed " << seed;
    EXPECT_GE(exact.predicted_energy, exact.certificate->dual);
  }
}

// The corpus comparison: on 100 random sets the certified exact WCS is
// never worse than the ALM's (to 1e-9 relative), lower on average, ends
// with a gap <= 1e-6 and costs at least 10x fewer objective evaluations.
TEST(ChainProgram, BeatsTheAlmOnARandomCorpus) {
  const model::LinearDvsModel cpu = workload::DefaultModel();
  double ratio_sum = 0.0;
  double exact_evaluations = 0.0;
  double alm_evaluations = 0.0;
  const int sets = 100;
  for (int i = 0; i < sets; ++i) {
    const model::TaskSet set = RandomSet(cpu, 100 + static_cast<std::uint64_t>(i));
    const fps::FullyPreemptiveSchedule fps(set);
    const ScheduleResult alm = AlmWcs(fps, cpu);
    const ScheduleResult exact = SolveWcs(fps, cpu);
    ASSERT_TRUE(exact.certificate.has_value()) << "set " << i;
    EXPECT_FALSE(exact.used_fallback);
    EXPECT_LE(exact.certificate->relative_gap, 1e-6) << "set " << i;
    EXPECT_LE(exact.predicted_energy, alm.predicted_energy * (1.0 + 1e-9))
        << "set " << i;
    const sim::FeasibilityReport audit =
        sim::VerifyWorstCase(fps, exact.schedule, cpu);
    EXPECT_TRUE(audit.feasible) << audit.detail;
    ratio_sum += exact.predicted_energy / alm.predicted_energy;
    exact_evaluations += static_cast<double>(exact.alm.evaluations);
    alm_evaluations += static_cast<double>(alm.alm.evaluations);
  }
  EXPECT_LT(ratio_sum / sets, 1.0);
  EXPECT_LE(10.0 * exact_evaluations, alm_evaluations);
}

}  // namespace
}  // namespace dvs::core
