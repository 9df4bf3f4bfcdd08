// Scenario subsystem unit tests: registry contents, the clamping contract
// (every draw inside [BCEC, WCEC]), per-run determinism, the scenarios'
// distinguishing statistical signatures, degenerate windows, and the trace
// loader.
#include "workload/scenario.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "stats/summary.h"
#include "util/error.h"

namespace dvs::workload {
namespace {

model::TaskSet TwoTaskSet() {
  model::Task a;
  a.name = "a";
  a.period = 10;
  a.wcec = 1000.0;
  a.acec = 550.0;
  a.bcec = 100.0;
  model::Task b;
  b.name = "b";
  b.period = 20;
  b.wcec = 400.0;
  b.acec = 260.0;
  b.bcec = 120.0;
  return model::TaskSet({a, b});
}

/// BCEC == WCEC on every task: the collapsed-window degenerate edge.
model::TaskSet RigidSet() {
  model::Task a;
  a.name = "rigid";
  a.period = 10;
  a.wcec = 500.0;
  a.acec = 500.0;
  a.bcec = 500.0;
  return model::TaskSet({a});
}

std::vector<double> Draw(const model::WorkloadSampler& sampler,
                         model::TaskIndex task, std::uint64_t seed, int n) {
  stats::Rng rng(seed);
  std::vector<double> draws;
  draws.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    draws.push_back(sampler.SampleCycles(task, rng));
  }
  return draws;
}

TEST(ScenarioRegistry, BuiltinNamesAndErrors) {
  const ScenarioRegistry& registry = ScenarioRegistry::Builtin();
  const std::vector<std::string> expected = {
      "iid-normal", "bimodal", "bursty", "heavy-tail", "correlated", "trace"};
  EXPECT_EQ(registry.Names(), expected);
  for (const std::string& name : expected) {
    EXPECT_NO_THROW(registry.Get(name));
    EXPECT_FALSE(registry.Description(name).empty());
  }
  EXPECT_THROW(registry.Get("no-such-scenario"), util::InvalidArgumentError);
}

// The clamping contract of workload/scenario.h: whatever the process, every
// draw lands inside the task's [BCEC, WCEC] window, so feasibility analysis
// never sees the scenario axis.
TEST(Scenarios, EveryBuiltinStaysInsideTheWindow) {
  const model::TaskSet set = TwoTaskSet();
  for (const std::string& name : ScenarioRegistry::Builtin().Names()) {
    const auto sampler =
        ScenarioRegistry::Builtin().Get(name).MakeSampler(set, 6.0);
    for (model::TaskIndex task = 0; task < set.size(); ++task) {
      const model::Task& t = set.task(task);
      for (double x : Draw(*sampler, task, 99, 5000)) {
        ASSERT_GE(x, t.bcec) << name << " task " << task;
        ASSERT_LE(x, t.wcec) << name << " task " << task;
      }
    }
  }
}

// A fresh sampler + the same seed must reproduce the identical sequence:
// the per-run-state contract behind paired-seed comparisons.
TEST(Scenarios, FreshSamplerSameSeedIsBitIdentical) {
  const model::TaskSet set = TwoTaskSet();
  for (const std::string& name : ScenarioRegistry::Builtin().Names()) {
    const model::WorkloadScenario& scenario =
        ScenarioRegistry::Builtin().Get(name);
    const auto first = scenario.MakeSampler(set, 6.0);
    const auto second = scenario.MakeSampler(set, 6.0);
    EXPECT_EQ(Draw(*first, 0, 7, 500), Draw(*second, 0, 7, 500)) << name;
  }
}

// Collapsed windows: every scenario degenerates to the fixed WCEC draw.
TEST(Scenarios, CollapsedWindowDrawsWcecEverywhere) {
  const model::TaskSet set = RigidSet();
  for (const std::string& name : ScenarioRegistry::Builtin().Names()) {
    const auto sampler =
        ScenarioRegistry::Builtin().Get(name).MakeSampler(set, 6.0);
    for (double x : Draw(*sampler, 0, 3, 200)) {
      ASSERT_DOUBLE_EQ(x, 500.0) << name;
    }
  }
}

// iid-normal is the pre-scenario default: byte-identical draws to a
// directly constructed TruncatedNormalWorkload.
TEST(Scenarios, IidNormalMatchesLegacySampler) {
  const model::TaskSet set = TwoTaskSet();
  const auto scenario =
      ScenarioRegistry::Builtin().Get("iid-normal").MakeSampler(set, 6.0);
  const model::TruncatedNormalWorkload legacy(set, 6.0);
  EXPECT_EQ(Draw(*scenario, 0, 42, 1000), Draw(legacy, 0, 42, 1000));
  EXPECT_EQ(Draw(*scenario, 1, 43, 1000), Draw(legacy, 1, 43, 1000));
}

// Bimodal: the mid-window valley between the two modes is (nearly) empty —
// the signature a unimodal law cannot produce.
TEST(Scenarios, BimodalLeavesTheValleyEmpty) {
  const model::TaskSet set = TwoTaskSet();  // task 0: window [100, 1000]
  const auto sampler =
      ScenarioRegistry::Builtin().Get("bimodal").MakeSampler(set, 6.0);
  int low = 0;
  int high = 0;
  int valley = 0;
  for (double x : Draw(*sampler, 0, 17, 20000)) {
    if (x < 500.0) {
      ++low;
    } else if (x > 700.0) {
      ++high;
    } else {
      ++valley;
    }
  }
  EXPECT_GT(low, 12000);   // ~75% hit mode near BCEC + 0.2 span
  EXPECT_GT(high, 3000);   // ~25% miss mode near WCEC
  EXPECT_LT(valley, 400);  // the gap between modes stays near-empty
}

// Bursty: consecutive jobs share a phase far more often than i.i.d. draws
// would, and both phases are actually visited.
TEST(Scenarios, BurstyPhasesAreSticky) {
  const model::TaskSet set = TwoTaskSet();
  const auto sampler =
      ScenarioRegistry::Builtin().Get("bursty").MakeSampler(set, 6.0);
  const std::vector<double> draws = Draw(*sampler, 0, 23, 20000);
  const double midpoint = 100.0 + 0.55 * 900.0;  // between the phase means
  int heavy = 0;
  int same_side = 0;
  for (std::size_t i = 0; i < draws.size(); ++i) {
    const bool is_heavy = draws[i] > midpoint;
    heavy += is_heavy ? 1 : 0;
    if (i > 0 && is_heavy == (draws[i - 1] > midpoint)) {
      ++same_side;
    }
  }
  // Stationary split is 1/3 heavy (p 0.1 vs 0.2); stickiness keeps ~85% of
  // adjacent pairs on one side, far above the ~5/9 an i.i.d. split gives.
  EXPECT_GT(heavy, 4000);
  EXPECT_LT(heavy, 10000);
  EXPECT_GT(static_cast<double>(same_side) /
                static_cast<double>(draws.size() - 1),
            0.75);
}

// Heavy-tail: the bulk hugs BCEC, yet rare stragglers still reach deep
// into the window (the fraction-space Pareto with shape 1.1 / cap 100
// puts ~94% of the mass within span/9 of BCEC and ~35 in 10000 beyond
// 2/3 of the window — deterministic seed, so the counts are exact
// regressions).
TEST(Scenarios, HeavyTailBulkNearBcecWithStragglers) {
  const model::TaskSet set = TwoTaskSet();
  const auto sampler =
      ScenarioRegistry::Builtin().Get("heavy-tail").MakeSampler(set, 6.0);
  const std::vector<double> draws = Draw(*sampler, 0, 29, 50000);
  int near_bcec = 0;
  int stragglers = 0;
  for (double x : draws) {
    near_bcec += x < 200.0 ? 1 : 0;    // within span/9 of BCEC
    stragglers += x > 700.0 ? 1 : 0;   // beyond 2/3 of the window
  }
  EXPECT_GT(near_bcec, 45000);
  EXPECT_GE(stragglers, 5);
}

// Correlated: positive lag-1 autocorrelation, absent from the i.i.d. law.
TEST(Scenarios, CorrelatedHasPositiveLag1Autocorrelation) {
  const model::TaskSet set = TwoTaskSet();
  const auto correlated =
      ScenarioRegistry::Builtin().Get("correlated").MakeSampler(set, 6.0);
  const auto iid =
      ScenarioRegistry::Builtin().Get("iid-normal").MakeSampler(set, 6.0);

  const auto lag1 = [](const std::vector<double>& xs) {
    stats::OnlineStats all;
    for (double x : xs) {
      all.Add(x);
    }
    const double mean = all.mean();
    double num = 0.0;
    double den = 0.0;
    for (std::size_t i = 0; i < xs.size(); ++i) {
      den += (xs[i] - mean) * (xs[i] - mean);
      if (i > 0) {
        num += (xs[i] - mean) * (xs[i - 1] - mean);
      }
    }
    return num / den;
  };

  EXPECT_GT(lag1(Draw(*correlated, 0, 31, 20000)), 0.6);
  EXPECT_LT(std::abs(lag1(Draw(*iid, 0, 31, 20000))), 0.1);
}

// Trace: deterministic (no rng consumption), cyclic, phase-offset per task.
TEST(Scenarios, TraceReplaysFractionsCyclically) {
  const model::TaskSet set = TwoTaskSet();
  const auto scenario = MakeTraceScenario({0.0, 0.5, 1.0});
  const auto sampler = scenario->MakeSampler(set, 6.0);

  // Task 0 (window [100, 1000], phase 0): 100, 550, 1000, 100, ...
  const std::vector<double> a = Draw(*sampler, 0, 1, 6);
  EXPECT_EQ(a, (std::vector<double>{100.0, 550.0, 1000.0, 100.0, 550.0,
                                    1000.0}));
  // Task 1 (window [120, 400], phase 1): starts at fraction 0.5.
  const std::vector<double> b = Draw(*sampler, 1, 1, 3);
  EXPECT_EQ(b, (std::vector<double>{260.0, 400.0, 120.0}));
}

TEST(Scenarios, SingleEntryTraceIsConstant) {
  const model::TaskSet set = TwoTaskSet();
  const auto sampler = MakeTraceScenario({0.25})->MakeSampler(set, 6.0);
  for (double x : Draw(*sampler, 0, 1, 10)) {
    EXPECT_DOUBLE_EQ(x, 100.0 + 0.25 * 900.0);
  }
}

TEST(Scenarios, TraceClampsOutOfRangeFractions) {
  const model::TaskSet set = TwoTaskSet();
  const auto sampler = MakeTraceScenario({-0.5, 1.5})->MakeSampler(set, 6.0);
  const std::vector<double> draws = Draw(*sampler, 0, 1, 2);
  EXPECT_DOUBLE_EQ(draws[0], 100.0);   // clamped to fraction 0
  EXPECT_DOUBLE_EQ(draws[1], 1000.0);  // clamped to fraction 1
}

TEST(Scenarios, EmptyTraceRejected) {
  EXPECT_THROW(MakeTraceScenario({}), util::InvalidArgumentError);
}

TEST(LoadTraceScenario, ParsesCsvWithHeaderCommentsAndExtraColumns) {
  const std::string path = ::testing::TempDir() + "trace_scenario_test.csv";
  {
    std::ofstream out(path);
    out << "# recorded 2026-07-31 on board A\n"
        << "fraction,job_id\n"
        << "0.0,0\n"
        << "\n"
        << "0.5,1\n"
        << "1.0,2\n";
  }
  const auto scenario = LoadTraceScenario(path);
  const model::TaskSet set = TwoTaskSet();
  const auto sampler = scenario->MakeSampler(set, 6.0);
  EXPECT_EQ(Draw(*sampler, 0, 1, 3),
            (std::vector<double>{100.0, 550.0, 1000.0}));
  std::remove(path.c_str());
}

TEST(LoadTraceScenario, RejectsAbsoluteCycleRecordings) {
  // A recording in raw cycles (not normalised fractions) must fail loudly
  // instead of clamping every job to WCEC; a non-finite row must fail
  // instead of clamping to BCEC.  The error names the file and the field.
  const std::string path = ::testing::TempDir() + "trace_scenario_cycles.csv";
  const std::pair<const char*, const char*> cases[] = {
      {"1200\n950\n1043\n", "1200"},
      {"0.5\nnan\n0.7\n", "nan"},
      {"0.5\n-nan\n0.7\n", "-nan"},
      {"0.5\ninf\n0.7\n", "inf"},
  };
  for (const auto& [contents, field] : cases) {
    {
      std::ofstream out(path);
      out << contents;
    }
    try {
      LoadTraceScenario(path);
      ADD_FAILURE() << "accepted a trace with the row " << field;
    } catch (const util::Error& error) {
      const std::string message = error.what();
      EXPECT_NE(message.find(path), std::string::npos) << message;
      EXPECT_NE(message.find(field), std::string::npos) << message;
    }
  }
  std::remove(path.c_str());
}

TEST(LoadTraceScenario, RejectsMissingAndEmptyFiles) {
  EXPECT_THROW(LoadTraceScenario("/nonexistent-dir/trace.csv"), util::Error);
  const std::string path = ::testing::TempDir() + "trace_scenario_empty.csv";
  {
    std::ofstream out(path);
    out << "# only comments\n";
  }
  EXPECT_THROW(LoadTraceScenario(path), util::Error);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace dvs::workload
