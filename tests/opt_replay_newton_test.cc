// Tests for the structured Newton solver of the lifted single-replay ACS
// program: input validation, determinism, convexity of its full-node piece,
// tightness of the start relaxation, quality against the capped ALM on
// tiny random sets and against the checked-in multi-start reference corpus,
// its results to the bit on that corpus, and its step guard on a checked-in
// multi-pattern problem.
#include "opt/replay_newton.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/formulation.h"
#include "core/scheduler.h"
#include "fps/expansion.h"
#include "stats/rng.h"
#include "util/error.h"
#include "workload/presets.h"
#include "workload/random_taskset.h"

namespace dvs::core {
namespace {

/// The ACEC program of `fps` under the linear model `dvs`.
opt::ReplayProblem ProblemOf(const fps::FullyPreemptiveSchedule& fps,
                             const model::LinearDvsModel& dvs) {
  opt::ReplayProblem problem;
  const std::size_t n = fps.sub_count();
  problem.release.resize(n);
  problem.begin.resize(n);
  problem.cap = fps.effective_end_bounds();
  problem.group.resize(n);
  for (std::size_t u = 0; u < n; ++u) {
    problem.release[u] = fps.sub(u).release();
    problem.begin[u] = fps.sub(u).seg_begin;
    problem.group[u] = fps.sub(u).parent;
  }
  for (std::size_t p = 0; p < fps.instance_count(); ++p) {
    const model::Task& task = fps.task_set().task(fps.instance(p).info.task);
    problem.group_total.push_back(task.wcec);
    problem.group_plan.push_back(task.acec);
  }
  problem.energy_coeff = dvs.ceff() / (dvs.k() * dvs.k());
  problem.min_speed = dvs.k() * dvs.vmin();
  problem.max_speed = dvs.k() * dvs.vmax();
  return problem;
}

struct Warm {
  std::vector<double> end, budget;
};

Warm WarmOf(const sim::StaticSchedule& schedule) {
  Warm warm;
  for (std::size_t u = 0; u < schedule.size(); ++u) {
    warm.end.push_back(schedule.end_time(u));
    warm.budget.push_back(schedule.worst_budget(u));
  }
  return warm;
}

model::TaskSet TinySet(int seed, const model::DvsModel& dvs) {
  stats::Rng rng(static_cast<std::uint64_t>(1000 + seed));
  workload::RandomTaskSetOptions options;
  options.num_tasks = 2 + seed % 3;
  options.bcec_wcec_ratio = seed % 2 == 0 ? 0.1 : 0.5;
  options.max_sub_instances = 40;
  return workload::GenerateRandomTaskSet(options, dvs, rng);
}

// On tiny sets (2-4 tasks, at most 40 sub-instances) the program energy of
// every converged solve is the greedy replay energy of its repaired
// schedule: the start relaxation is tight at the optimum.  Against the
// capped ALM from the same exact-WCS warm start the solve is better on most
// sets (by up to 11 %); it is a local method, and on two sets of this
// corpus (seeds 11 and 13) its pattern search stops in a local optimum
// 0.7-2.5 % worse.  That gap is pinned here and must close before the
// planning arms can route through the solver.
TEST(ReplayNewton, BeatsTheCappedAlmOnMostTinySets) {
  const model::LinearDvsModel cpu = workload::DefaultModel();
  int converged = 0;
  int better = 0;
  int worse = 0;
  const int kSets = 24;
  for (int seed = 0; seed < kSets; ++seed) {
    SCOPED_TRACE(seed);
    const model::TaskSet set = TinySet(seed, cpu);
    const fps::FullyPreemptiveSchedule fps(set);
    const ScheduleResult wcs = SolveWcs(fps, cpu);
    const ScheduleResult alm =
        SolveSchedule(fps, cpu, Scenario::kAverage, wcs.schedule);
    const Warm warm = WarmOf(wcs.schedule);
    opt::ReplaySolution solution;
    const opt::ReplayNewtonReport report =
        opt::SolveReplay(ProblemOf(fps, cpu), warm.end, warm.budget, solution);
    if (report.status != opt::ReplayStatus::kSolved) {
      EXPECT_EQ(report.status, opt::ReplayStatus::kNoConvergence);
      continue;
    }
    ++converged;
    EXPECT_LE(report.kkt_residual, opt::kKktTol);
    const std::optional<sim::StaticSchedule> repaired =
        RepairSchedule(fps, cpu, solution.end, solution.budget);
    ASSERT_TRUE(repaired.has_value());
    const EnergyObjective objective(fps, cpu, Scenario::kAverage);
    const double energy = objective.Value(objective.PackSchedule(*repaired));
    EXPECT_NEAR(energy, report.objective, 1e-6 * energy);
    better += energy < alm.predicted_energy * (1.0 - 1e-6) ? 1 : 0;
    worse += energy > alm.predicted_energy * (1.0 + 1e-6) ? 1 : 0;
  }
  EXPECT_GE(converged, kSets - 3);
  EXPECT_GE(better, kSets / 2);
  EXPECT_LE(worse, 2);
}

/// Set `index` of the reference corpus: the draw of
/// tools/replay_reference.cc's ReferenceSet (change both together and
/// regenerate tests/data/replay_reference.csv).
model::TaskSet ReferenceSet(int index, const model::DvsModel& dvs) {
  stats::Rng rng(static_cast<std::uint64_t>(5000 + index));
  workload::RandomTaskSetOptions options;
  options.num_tasks = 2 + index % 3;
  options.bcec_wcec_ratio = index % 3 == 0 ? 0.1 : index % 3 == 1 ? 0.5 : 0.9;
  options.max_sub_instances = 40;
  return workload::GenerateRandomTaskSet(options, dvs, rng);
}

// The quality oracle: on the 20 checked-in sets, each ACS solve converges
// and lands within 1e-6 of, or below, the best of five multi-start ALM
// solves at a raised budget (tools/replay_reference.cc).  At the time of
// writing it is below every reference but the two- and eight-node sets it
// matches, by up to 3.6 %.
TEST(ReplayNewton, MatchesOrBeatsTheMultiStartAlmReferences) {
  const model::LinearDvsModel cpu = workload::DefaultModel();
  std::ifstream csv(std::string(ACS_TEST_DATA_DIR) +
                    "/replay_reference.csv");
  ASSERT_TRUE(csv.good());
  std::string line;
  std::getline(csv, line);  // header
  int sets = 0;
  while (std::getline(csv, line)) {
    int index = 0;
    std::size_t subs = 0;
    double reference = 0.0;
    ASSERT_EQ(std::sscanf(line.c_str(), "%d,%zu,%lf", &index, &subs,
                          &reference),
              3)
        << line;
    SCOPED_TRACE(index);
    const model::TaskSet set = ReferenceSet(index, cpu);
    const fps::FullyPreemptiveSchedule fps(set);
    ASSERT_EQ(fps.sub_count(), subs) << "the corpus draw drifted";
    const ScheduleResult acs = SolveAcs(fps, cpu);
    EXPECT_FALSE(acs.used_fallback);
    EXPECT_LE(acs.predicted_energy, reference * (1.0 + 1e-6));
    ++sets;
  }
  EXPECT_EQ(sets, 20);
}

std::uint64_t Bits(double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof bits);
  return bits;
}

struct ReplayPin {
  int set;
  std::uint64_t objective_bits;
  std::size_t newton_steps;
  std::size_t patterns;
};

/// The warm starts of the pins below, per corpus set: the exact WCS
/// schedules they were recorded from (tests/data/replay_warm_starts.csv, in
/// hexadecimal floating point), so that the pins follow SolveReplay alone.
std::vector<Warm> RecordedWarmStarts() {
  std::ifstream csv(std::string(ACS_TEST_DATA_DIR) +
                    "/replay_warm_starts.csv");
  std::vector<Warm> warm;
  std::string line;
  std::getline(csv, line);  // header
  while (std::getline(csv, line)) {
    const std::size_t a = line.find(',');
    const std::size_t b = line.find(',', a + 1);
    const std::size_t c = line.find(',', b + 1);
    const std::size_t set = std::stoul(line.substr(0, a));
    warm.resize(std::max(warm.size(), set + 1));
    warm[set].end.push_back(std::strtod(line.c_str() + b + 1, nullptr));
    warm[set].budget.push_back(std::strtod(line.c_str() + c + 1, nullptr));
  }
  return warm;
}

// SolveReplay's objective (to the bit), Newton systems and patterns on every
// set of the reference corpus from its recorded exact WCS warm start, at the
// ACEC point (first row of each set) and at the three-quarter point between
// BCEC and WCEC (second row).  The Newton kernel replays a per-pattern
// elimination plan; a change that moves one rounding fails here.
constexpr ReplayPin kReplayPins[] = {
  {0, 0x40867ff1f7bde0f3ULL, 33, 2},
  {0, 0x40930d72a17ad988ULL, 33, 2},
  {1, 0x40b8355a594c6a1bULL, 21, 1},
  {1, 0x40c08822c0bc2b8bULL, 58, 2},
  {2, 0x40a2d869ece666ddULL, 18, 1},
  {2, 0x40a41d820769b8abULL, 18, 1},
  {3, 0x4087377e34f7ed2dULL, 15, 1},
  {3, 0x4095e0a33259ab53ULL, 15, 1},
  {4, 0x40c51e64d71b77cfULL, 32, 2},
  {4, 0x40ceee5dd46da34fULL, 33, 2},
  {5, 0x40adbec7763105e3ULL, 18, 1},
  {5, 0x40aff80c375eaca6ULL, 96, 1},
  {6, 0x408e0e11f45c9659ULL, 15, 1},
  {6, 0x4095a72673e2591aULL, 15, 1},
  {7, 0x40b537a93fd1b307ULL, 18, 1},
  {7, 0x40bf2804c232a255ULL, 15, 1},
  {8, 0x40c2edb30b4043d1ULL, 71, 2},
  {8, 0x40c432a7b12895c2ULL, 52, 2},
  {9, 0x40aa38f95ca45d30ULL, 36, 2},
  {9, 0x40b94f7304efcb6dULL, 32, 2},
  {10, 0x40a5c6515828e03aULL, 52, 3},
  {10, 0x40af9d64e4289dc4ULL, 31, 2},
  {11, 0x40d2dc2e00652f2cULL, 18, 1},
  {11, 0x40d41f94b77e4b3dULL, 19, 1},
  {12, 0x40bba5ff6f1fec7aULL, 35, 2},
  {12, 0x40c9efb2c15825a2ULL, 34, 2},
  {13, 0x40915abeaa4edaecULL, 79, 3},
  {13, 0x40983250a3f73c21ULL, 48, 2},
  {14, 0x40b2aaea93852508ULL, 38, 2},
  {14, 0x40b40560df88c592ULL, 17, 1},
  {15, 0x4051da9fcde01836ULL, 13, 1},
  {15, 0x406068ecc151339bULL, 12, 1},
  {16, 0x40a0499e508ebd9dULL, 32, 2},
  {16, 0x40a805edafce6130ULL, 15, 1},
  {17, 0x408e4e300b3e3ff0ULL, 18, 1},
  {17, 0x40902194850ab972ULL, 18, 1},
  {18, 0x40a9f63631d0d6d2ULL, 35, 2},
  {18, 0x40b861f0016aee13ULL, 32, 2},
  {19, 0x40817c085630730bULL, 34, 2},
  {19, 0x40888dae82bb31a6ULL, 15, 1},
};

TEST(ReplayNewton, IsBitIdenticalOnTheReferenceCorpus) {
  const model::LinearDvsModel cpu = workload::DefaultModel();
  std::ifstream csv(std::string(ACS_TEST_DATA_DIR) +
                    "/replay_reference.csv");
  ASSERT_TRUE(csv.good());
  std::string line;
  std::getline(csv, line);  // header
  const std::vector<Warm> recorded = RecordedWarmStarts();
  std::size_t pins = 0;
  while (std::getline(csv, line)) {
    int index = 0;
    ASSERT_EQ(std::sscanf(line.c_str(), "%d,", &index), 1) << line;
    SCOPED_TRACE(index);
    const model::TaskSet set = ReferenceSet(index, cpu);
    const fps::FullyPreemptiveSchedule fps(set);
    ASSERT_LT(static_cast<std::size_t>(index), recorded.size());
    const Warm& warm = recorded[static_cast<std::size_t>(index)];
    ASSERT_EQ(warm.end.size(), fps.sub_count());
    opt::ReplayProblem problem = ProblemOf(fps, cpu);
    for (int point = 0; point < 2; ++point) {
      if (point == 1) {
        for (std::size_t p = 0; p < fps.instance_count(); ++p) {
          const model::Task& task = set.task(fps.instance(p).info.task);
          problem.group_plan[p] = task.bcec + 0.75 * (task.wcec - task.bcec);
        }
      }
      opt::ReplaySolution solution;
      const opt::ReplayNewtonReport report =
          opt::SolveReplay(problem, warm.end, warm.budget, solution);
      ASSERT_EQ(report.status, opt::ReplayStatus::kSolved) << point;
      ASSERT_LT(pins, std::size(kReplayPins));
      EXPECT_EQ(kReplayPins[pins].set, index) << point;
      EXPECT_EQ(kReplayPins[pins].objective_bits, Bits(report.objective))
          << point;
      EXPECT_EQ(kReplayPins[pins].newton_steps, report.newton_steps) << point;
      EXPECT_EQ(kReplayPins[pins].patterns, report.patterns) << point;
      ++pins;
    }
  }
  EXPECT_EQ(pins, std::size(kReplayPins));
}

// A full node's energy w * max(smin, w / d)^2 (speed units) is jointly
// convex in (w, d): the perspective of w^3 and a linear piece, maxed.
TEST(ReplayNewton, FullNodeEnergyIsMidpointConvex) {
  stats::Rng rng(9);
  const double smin = 0.125;
  const auto energy = [smin](double w, double d) {
    const double q = std::max(smin, w / d);
    return w * q * q;
  };
  int floored = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    const double w0 = rng.Uniform(0.01, 1.0);
    const double w1 = rng.Uniform(0.01, 1.0);
    // Windows up to 12x the budget put both ends on either side of the
    // Vmin floor (w / d = smin at d = 8 w).
    const double d0 = w0 * rng.Uniform(1.0, 12.0);
    const double d1 = w1 * rng.Uniform(1.0, 12.0);
    floored += (w0 / d0 < smin) + (w1 / d1 < smin);
    const double mid = energy(0.5 * (w0 + w1), 0.5 * (d0 + d1));
    EXPECT_LE(mid, 0.5 * (energy(w0, d0) + energy(w1, d1)) + 1e-12);
  }
  EXPECT_GT(floored, 200);
  EXPECT_LT(floored, 3800);
}

TEST(ReplayNewton, WorkspaceDoesNotChangeTheResult) {
  const model::LinearDvsModel cpu = workload::DefaultModel();
  const model::TaskSet set = TinySet(7, cpu);
  const fps::FullyPreemptiveSchedule fps(set);
  const Warm warm = WarmOf(SolveWcs(fps, cpu).schedule);
  const opt::ReplayProblem problem = ProblemOf(fps, cpu);
  opt::ReplaySolution plain;
  opt::ReplaySolution reused;
  opt::ReplayNewtonWorkspace workspace;
  const opt::ReplayNewtonReport a =
      opt::SolveReplay(problem, warm.end, warm.budget, plain);
  opt::SolveReplay(problem, warm.end, warm.budget, reused, &workspace);
  const opt::ReplayNewtonReport b =
      opt::SolveReplay(problem, warm.end, warm.budget, reused, &workspace);
  ASSERT_EQ(a.status, opt::ReplayStatus::kSolved);
  EXPECT_EQ(a.objective, b.objective);
  EXPECT_EQ(a.newton_steps, b.newton_steps);
  EXPECT_EQ(plain.end, reused.end);
  EXPECT_EQ(plain.budget, reused.budget);
}

/// A replay problem with its warm start, as checked in.
struct StoredProblem {
  opt::ReplayProblem problem;
  std::vector<double> warm_end, warm_budget;
};

/// Reads tests/data/`name` (format in the file's header comment).
StoredProblem ReadProblem(const std::string& name) {
  std::ifstream in(std::string(ACS_TEST_DATA_DIR) + "/" + name);
  StoredProblem stored;
  opt::ReplayProblem& problem = stored.problem;
  std::string line;
  while (std::getline(in, line) && line.rfind('#', 0) == 0) {
  }
  std::istringstream(line) >> problem.energy_coeff >> problem.min_speed >>
      problem.max_speed;
  std::size_t nodes = 0;
  std::size_t groups = 0;
  in >> nodes >> groups;
  for (std::size_t u = 0; u < nodes; ++u) {
    double release = 0.0;
    double begin = 0.0;
    double cap = 0.0;
    double end = 0.0;
    double budget = 0.0;
    std::size_t group = 0;
    in >> release >> begin >> cap >> group >> end >> budget;
    problem.release.push_back(release);
    problem.begin.push_back(begin);
    problem.cap.push_back(cap);
    problem.group.push_back(group);
    stored.warm_end.push_back(end);
    stored.warm_budget.push_back(budget);
  }
  for (std::size_t g = 0; g < groups; ++g) {
    double total = 0.0;
    double plan = 0.0;
    in >> total >> plan;
    problem.group_total.push_back(total);
    problem.group_plan.push_back(plan);
  }
  EXPECT_TRUE(in.good()) << name;
  return stored;
}

// The acs-scenario solve of a perfbench sim-online set (4 tasks, BCEC/WCEC
// 0.5, bursty draws, 29 sub-instances, 12 instances) visits two patterns.
// A log-barrier path that restarted each pattern from its first parameter
// reached the 1500-step guard on the second; it converges well under it.
TEST(ReplayNewton, ConvergesOnAMultiPatternSetWellUnderTheGuard) {
  const StoredProblem stored = ReadProblem("replay_guard_set.txt");
  ASSERT_EQ(stored.problem.release.size(), 29u);
  opt::ReplaySolution solution;
  const opt::ReplayNewtonReport report = opt::SolveReplay(
      stored.problem, stored.warm_end, stored.warm_budget, solution);
  ASSERT_EQ(report.status, opt::ReplayStatus::kSolved);
  EXPECT_LE(report.kkt_residual, opt::kKktTol);
  EXPECT_GE(report.patterns, 2u);
  EXPECT_LE(report.newton_steps, opt::kMaxNewtonSteps / 5);
  EXPECT_GT(report.objective, 0.0);
}

// A guard exit is never a converged solve: whatever pattern the guard
// fires in, the solve reports kNoConvergence and returns no point, even
// when an earlier pattern had converged.
TEST(ReplayNewton, AGuardExitInAnyPatternIsNotConverged) {
  const StoredProblem stored = ReadProblem("replay_guard_set.txt");
  opt::ReplaySolution solution;
  const opt::ReplayNewtonReport full = opt::SolveReplay(
      stored.problem, stored.warm_end, stored.warm_budget, solution);
  ASSERT_EQ(full.status, opt::ReplayStatus::kSolved);
  std::size_t later = 0;
  for (std::size_t guard = 1; guard < full.newton_steps; ++guard) {
    SCOPED_TRACE(guard);
    const opt::ReplayNewtonReport cut =
        opt::SolveReplay(stored.problem, stored.warm_end, stored.warm_budget,
                         solution, nullptr, guard);
    EXPECT_EQ(cut.status, opt::ReplayStatus::kNoConvergence);
    EXPECT_EQ(cut.newton_steps, guard);
    EXPECT_TRUE(solution.end.empty());
    later += cut.patterns > 1 ? 1 : 0;
  }
  EXPECT_GT(later, 0u) << "no guard fired after the first pattern";
  const opt::ReplayNewtonReport exact =
      opt::SolveReplay(stored.problem, stored.warm_end, stored.warm_budget,
                       solution, nullptr, full.newton_steps);
  EXPECT_EQ(exact.status, opt::ReplayStatus::kSolved);
  EXPECT_EQ(exact.objective, full.objective);
}

TEST(ReplayNewton, RejectsMalformedProblems) {
  const model::LinearDvsModel cpu = workload::DefaultModel();
  const model::TaskSet set = TinySet(0, cpu);
  const fps::FullyPreemptiveSchedule fps(set);
  const opt::ReplayProblem good = ProblemOf(fps, cpu);
  opt::ReplaySolution solution;
  opt::ReplayProblem bad = good;
  bad.cap.pop_back();
  EXPECT_THROW(opt::SolveReplay(bad, {}, {}, solution),
               util::InvalidArgumentError);
  bad = good;
  bad.min_speed = 0.0;
  EXPECT_THROW(opt::SolveReplay(bad, {}, {}, solution),
               util::InvalidArgumentError);
  bad = good;
  bad.group_plan[0] = 2.0 * bad.group_total[0];
  EXPECT_THROW(opt::SolveReplay(bad, {}, {}, solution),
               util::InvalidArgumentError);
  EXPECT_THROW(opt::SolveReplay(good, {1.0}, {1.0}, solution),
               util::InvalidArgumentError);
  // A cold start (no warm schedule) solves from an as-soon-as-possible
  // sweep, which need not be feasible.
  const opt::ReplayNewtonReport cold =
      opt::SolveReplay(good, {}, {}, solution);
  EXPECT_EQ(cold.status, opt::ReplayStatus::kSolved);
}

}  // namespace
}  // namespace dvs::core
