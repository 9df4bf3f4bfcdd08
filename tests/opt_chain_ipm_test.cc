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
#include "sim/engine.h"
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

// A per-core subset of default bench_dpm_sleep (--threads 1) under its
// critical-speed floor: the solve certifies it to the KKT tolerance, and
// the ALM from Vmax-ASAP ends about 1.5x higher.
TEST(ChainProgram, CertifiesAFlooredDpmCoreToTheKktTolerance) {
  const model::LinearDvsModel floored(/*vmin=*/0.62996051609448744,
                                      /*vmax=*/4.0, /*ceff=*/1.0,
                                      /*cycles_per_ms_per_volt=*/1.0);
  const model::TaskSet set({
      {"T2", 100, 17.142187186908249, 11.142421671490361, 5.1426561560724746},
      {"T3", 1000, 92.885022231310842, 60.375264450352049,
       27.865506669393252},
      {"T4", 125, 16.266369424110785, 10.573140125672008, 4.8799108272332345},
  });
  const fps::FullyPreemptiveSchedule fps(set);
  ASSERT_EQ(fps.sub_count(), 42u);
  const ScheduleResult exact = SolveWcs(fps, floored);
  ASSERT_TRUE(exact.certificate.has_value());
  EXPECT_LE(exact.certificate->relative_gap, opt::kKktTol);
  EXPECT_FALSE(exact.used_fallback);
  const sim::FeasibilityReport audit =
      sim::VerifyWorstCase(fps, exact.schedule, floored);
  EXPECT_TRUE(audit.feasible) << audit.detail;
  EXPECT_LT(exact.predicted_energy, AlmWcs(fps, floored).predicted_energy);
}

/// Sets whose Vmax as-soon-as-possible sweep ends a window exactly at its
/// cap, so that no strictly feasible start sits near it: the exact solve
/// starts from that sweep anyway and certifies each, below the ALM from
/// Vmax-ASAP.
void ExpectCertifiedBelowTheAlm(const model::TaskSet& set,
                                const model::LinearDvsModel& cpu,
                                std::size_t sub_count) {
  const fps::FullyPreemptiveSchedule fps(set);
  ASSERT_EQ(fps.sub_count(), sub_count);
  const ScheduleResult exact = SolveWcs(fps, cpu);
  ASSERT_TRUE(exact.certificate.has_value());
  EXPECT_FALSE(exact.used_fallback);
  EXPECT_LE(exact.certificate->relative_gap, 1e-6);
  EXPECT_GT(exact.alm.total_inner_iterations, 0u);
  const sim::FeasibilityReport audit =
      sim::VerifyWorstCase(fps, exact.schedule, cpu);
  EXPECT_TRUE(audit.feasible) << audit.detail;
  EXPECT_LT(exact.predicted_energy, AlmWcs(fps, cpu).predicted_energy);
}

// A per-core subset of the seed-1 grid-warm perfbench grid (utilisation
// 0.998 at Vmax).
TEST(ChainProgram, CertifiesAGridWarmCoreWithATightSweep) {
  ExpectCertifiedBelowTheAlm(
      model::TaskSet({
          {"T1", 20, 4.2147013996298988, 3.1610260497224241,
           2.1073506998149494},
          {"T2", 20, 15.507105233894322, 11.63032892542074,
           7.7535526169471609},
          {"T3", 10, 7.5782057235923395, 5.6836542926942544,
           3.7891028617961697},
          {"T4", 50, 36.911937098841683, 27.683952824131264,
           18.455968549420842},
          {"T5", 20, 15.921454963964399, 11.941091222973299,
           7.9607274819821994},
          {"T8", 100, 71.549370895458665, 53.66202817159401,
           35.774685447729333},
      }),
      workload::DefaultModel(), 60);
}

// The 56-sub-instance per-core subset of mp_fleet_test's fleet
// (utilisation 0.9988 at Vmax).
TEST(ChainProgram, CertifiesAFleetCoreWithATightSweep) {
  ExpectCertifiedBelowTheAlm(
      model::TaskSet({
          {"T1", 20, 26.20257923857066, 17.03167650507093,
           7.8607737715711972},
          {"T2", 100, 78.624834389533689, 51.106142353196894,
           23.587450316860107},
          {"T5", 50, 24.455924437977231, 15.896350884685202,
           7.3367773313931695},
          {"T6", 200, 198.89804083503137, 129.28372654277038,
           59.66941225050941},
          {"T8", 20, 8.3012286439879404, 5.3957986185921616,
           2.4903685931963819},
      }),
      workload::DefaultModel(), 56);
}

// A 330-sub-instance set of default bench_ablation_utilization at
// utilisation 0.9.
TEST(ChainProgram, CertifiesAnAblationSetWithATightSweep) {
  ExpectCertifiedBelowTheAlm(
      model::TaskSet({
          {"T1", 125, 102.05831729449231, 56.132074511970771,
           10.205831729449232},
          {"T2", 20, 14.169972905562522, 7.7934850980593877,
           1.4169972905562522},
          {"T3", 200, 90.82165255876464, 49.951908907320551,
           9.0821652558764647},
          {"T4", 200, 115.11732308483826, 63.314527696661045,
           11.511732308483827},
          {"T5", 500, 418.51236873254913, 230.18180280290201,
           41.851236873254912},
          {"T6", 250, 52.078800170705492, 28.643340093888018,
           5.2078800170705497},
      }),
      workload::DefaultModel(), 330);
}

// A 16-sub-instance per-core subset of mp_fleet_test's DPM fleet under its
// critical-speed floor whose worst-case demand at Vmax fills the whole
// hyper-period: every feasible schedule runs at Vmax throughout, so the
// Vmax-ASAP sweep is optimal and is returned with a zero gap, no solver
// run.
TEST(ChainProgram, ReturnsTheSweepWhenItLeavesNoIdleTime) {
  const model::LinearDvsModel floored(/*vmin=*/0.53132928103037558,
                                      /*vmax=*/4.0, /*ceff=*/1.0,
                                      /*cycles_per_ms_per_volt=*/1.0);
  const model::TaskSet set({
      {"T1", 10, 7.750507234087765, 5.0378297021570475, 2.3251521702263296},
      {"T2", 20, 24.202957786247801, 15.73192256106107, 7.2608873358743393},
      {"T3", 40, 54.273820977999186, 35.277983635699471, 16.282146293399755},
      {"T4", 20, 13.159117256577078, 8.553426216775101, 3.9477351769731226},
  });
  const fps::FullyPreemptiveSchedule fps(set);
  ASSERT_EQ(fps.sub_count(), 16u);
  const ScheduleResult exact = SolveWcs(fps, floored);
  ASSERT_TRUE(exact.certificate.has_value());
  EXPECT_FALSE(exact.used_fallback);
  EXPECT_EQ(exact.certificate->relative_gap, 0.0);
  EXPECT_EQ(exact.certificate->primal, exact.certificate->dual);
  EXPECT_EQ(exact.alm.total_inner_iterations, 0u);
  const sim::StaticSchedule asap = sim::BuildVmaxAsapSchedule(fps, floored);
  EXPECT_EQ(exact.schedule.end_times(), asap.end_times());
  EXPECT_EQ(exact.schedule.worst_budgets(), asap.worst_budgets());
  const sim::FeasibilityReport audit =
      sim::VerifyWorstCase(fps, exact.schedule, floored);
  EXPECT_TRUE(audit.feasible) << audit.detail;
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
  {0, 0x40a1266666694d40ULL, 14},
  {1, 0x40c5ed98e9f20a41ULL, 16},
  {2, 0x40a570000002b271ULL, 14},
  {3, 0x40a1266666693baaULL, 15},
  {4, 0x40d5700000030727ULL, 15},
  {5, 0x40b126666668957aULL, 15},
  {6, 0x40a1266666693ba9ULL, 15},
  {7, 0x40c570000002f710ULL, 14},
  {8, 0x40c586cde154ef46ULL, 26},
  {9, 0x40c570000003a08fULL, 15},
  {10, 0x40b570000003072cULL, 15},
  {11, 0x40d570000002b8c4ULL, 15},
  {12, 0x40d57000000391f8ULL, 15},
  {13, 0x40a126666668daf1ULL, 15},
  {14, 0x40b570000002bad6ULL, 15},
  {15, 0x406b70a3d70e2b20ULL, 15},
  {16, 0x40b126666668c9f8ULL, 14},
  {17, 0x4091266666687a42ULL, 15},
  {18, 0x40c570000003a08aULL, 15},
  {19, 0x409126666668c9f8ULL, 15},
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
