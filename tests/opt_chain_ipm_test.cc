// Tests for the exact WCS solve: the chain program's convexity, a closed
// form, its equivalence with the reduced WCS problem, and its quality and
// cost against the ALM on a random corpus.
#include "opt/chain_ipm.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
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

/// Set `index` of the replay reference corpus (the draw of
/// tools/replay_reference.cc's ReferenceSet and of opt_replay_newton_test).
model::TaskSet ReferenceSet(int index, const model::DvsModel& dvs) {
  stats::Rng rng(static_cast<std::uint64_t>(5000 + index));
  workload::RandomTaskSetOptions options;
  options.num_tasks = 2 + index % 3;
  options.bcec_wcec_ratio = index % 3 == 0 ? 0.1 : index % 3 == 1 ? 0.5 : 0.9;
  options.max_sub_instances = 40;
  return workload::GenerateRandomTaskSet(options, dvs, rng);
}

std::uint64_t Bits(double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof bits);
  return bits;
}

struct ChainPin {
  int set;
  std::uint64_t objective_bits;
  std::size_t newton_steps;
};

// SolveChain's objective (to the bit) and Newton-step count on every set of
// the replay reference corpus.  The frontal elimination (opt/frontal.h) is
// shared with the ACS solver; a change there that moves one rounding of the
// exact WCS path fails here.
constexpr ChainPin kChainPins[] = {
  {0, 0x40a126666674e8feULL, 73},
  {1, 0x40c5ed98e9ff1d46ULL, 103},
  {2, 0x40a57000000d7e1dULL, 82},
  {3, 0x40a12666667493b2ULL, 76},
  {4, 0x40d57000000f2696ULL, 75},
  {5, 0x40b1266666715528ULL, 83},
  {6, 0x40a1266666745eb9ULL, 68},
  {7, 0x40c57000000ed629ULL, 68},
  {8, 0x40c586cde15bfb8bULL, 94},
  {9, 0x40c5700000122683ULL, 106},
  {10, 0x40b57000000f2052ULL, 98},
  {11, 0x40d57000000da2bcULL, 101},
  {12, 0x40d570000011db45ULL, 73},
  {13, 0x40a1266666819775ULL, 75},
  {14, 0x40b57000000da705ULL, 75},
  {15, 0x406b70a3d71d9c92ULL, 65},
  {16, 0x40b1266666722e22ULL, 64},
  {17, 0x409126666670cf08ULL, 98},
  {18, 0x40c5700000122500ULL, 74},
  {19, 0x40912666667258c8ULL, 72},
};

TEST(ChainProgram, IsBitIdenticalOnTheReferenceCorpus) {
  const model::LinearDvsModel cpu = workload::DefaultModel();
  std::ifstream csv(std::string(ACS_TEST_DATA_DIR) +
                    "/replay_reference.csv");
  ASSERT_TRUE(csv.good());
  std::string line;
  std::getline(csv, line);  // header
  std::size_t sets = 0;
  while (std::getline(csv, line)) {
    int index = 0;
    ASSERT_EQ(std::sscanf(line.c_str(), "%d,", &index), 1) << line;
    SCOPED_TRACE(index);
    const model::TaskSet set = ReferenceSet(index, cpu);
    const fps::FullyPreemptiveSchedule fps(set);
    opt::ChainProblem problem;
    problem.release.resize(fps.sub_count());
    problem.cap = fps.effective_end_bounds();
    problem.group.resize(fps.sub_count());
    for (std::size_t u = 0; u < fps.sub_count(); ++u) {
      problem.release[u] = fps.sub(u).release();
      problem.group[u] = fps.sub(u).parent;
    }
    for (std::size_t p = 0; p < fps.instance_count(); ++p) {
      problem.group_total.push_back(
          set.task(fps.instance(p).info.task).wcec);
    }
    problem.energy_coeff = cpu.ceff() / (cpu.k() * cpu.k());
    problem.min_speed = cpu.k() * cpu.vmin();
    problem.max_speed = cpu.k() * cpu.vmax();
    opt::ChainSolution solution;
    const opt::ChainIpmReport report = opt::SolveChain(problem, solution);
    ASSERT_EQ(report.status, opt::ChainStatus::kSolved);
    const double objective = opt::ChainObjective(problem, solution);
    ASSERT_LT(sets, std::size(kChainPins));
    EXPECT_EQ(kChainPins[sets].set, index);
    EXPECT_EQ(kChainPins[sets].objective_bits, Bits(objective));
    EXPECT_EQ(kChainPins[sets].newton_steps, report.newton_steps);
    ++sets;
  }
  EXPECT_EQ(sets, std::size(kChainPins));
}

}  // namespace
}  // namespace dvs::core
