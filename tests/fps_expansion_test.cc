// Tests for the fully preemptive schedule expansion (paper §3.1, Figs. 3-4).
#include "fps/expansion.h"

#include <gtest/gtest.h>

#include <cmath>
#include <iterator>
#include <set>
#include <string>
#include <vector>

#include "stats/rng.h"
#include "util/error.h"
#include "util/math.h"
#include "workload/presets.h"
#include "workload/random_taskset.h"

namespace dvs::fps {
namespace {

model::Task MakeTask(std::string name, std::int64_t period,
                     double wcec = 1.0) {
  model::Task t;
  t.name = std::move(name);
  t.period = period;
  t.wcec = wcec;
  t.acec = 0.6 * wcec;
  t.bcec = 0.2 * wcec;
  return t;
}

TEST(Expansion, SingleTaskHasOneSubPerInstance) {
  const model::TaskSet set({MakeTask("only", 5)});
  const FullyPreemptiveSchedule fps(set);
  EXPECT_EQ(fps.sub_count(), 1u);
  EXPECT_EQ(fps.instance_count(), 1u);
  const SubInstance& sub = fps.sub(0);
  EXPECT_DOUBLE_EQ(sub.seg_begin, 0.0);
  EXPECT_DOUBLE_EQ(sub.seg_end, 5.0);
  EXPECT_EQ(fps.max_subs_per_instance(), 1);
}

TEST(Expansion, PaperFigure3And4Structure) {
  // Reconstruction of the Fig. 3/4 example: T1 period 3 (high priority),
  // T2 and T3 period 9.  T2/T3 are cut by T1's releases at 3 and 6 into
  // three sub-instances each; T1's instances stay whole.
  const model::TaskSet set(
      {MakeTask("T1", 3), MakeTask("T2", 9), MakeTask("T3", 9)});
  const FullyPreemptiveSchedule fps(set);
  EXPECT_EQ(set.hyper_period(), 9);
  // 3 T1 instances + 3 T2 subs + 3 T3 subs.
  EXPECT_EQ(fps.sub_count(), 9u);
  EXPECT_EQ(fps.max_subs_per_instance(), 3);
  // Total order: within each segment start, priority order T1, T2, T3.
  EXPECT_EQ(fps.DescribeOrder(),
            "T1[0].0 T2[0].0 T3[0].0 T1[1].0 T2[0].1 T3[0].1 "
            "T1[2].0 T2[0].2 T3[0].2");
}

TEST(Expansion, EqualPeriodTasksDoNotCutEachOther) {
  const model::TaskSet set({MakeTask("a", 10), MakeTask("b", 10)});
  const FullyPreemptiveSchedule fps(set);
  EXPECT_EQ(fps.sub_count(), 2u);  // one whole sub-instance each
  EXPECT_EQ(fps.max_subs_per_instance(), 1);
}

TEST(Expansion, CutsOnlyInsideTheWindow) {
  // T2's instance [0, 10) is cut by T1's releases at 2,4,6,8 (not 0 or 10).
  const model::TaskSet set({MakeTask("T1", 2), MakeTask("T2", 10)});
  const FullyPreemptiveSchedule fps(set);
  const InstanceRecord* t2_instance = nullptr;
  for (const InstanceRecord& rec : fps.instances()) {
    if (rec.info.task == 1) {
      t2_instance = &rec;
    }
  }
  ASSERT_NE(t2_instance, nullptr);
  EXPECT_EQ(t2_instance->subs.size(), 5u);
  double cursor = 0.0;
  for (std::size_t order : t2_instance->subs) {
    const SubInstance& sub = fps.sub(order);
    EXPECT_DOUBLE_EQ(sub.seg_begin, cursor);
    cursor = sub.seg_end;
  }
  EXPECT_DOUBLE_EQ(cursor, 10.0);
}

TEST(Expansion, SegmentEndIsAHigherPriorityReleaseOrDeadline) {
  const model::TaskSet set(
      {MakeTask("hi", 4), MakeTask("mid", 6), MakeTask("lo", 12)});
  const FullyPreemptiveSchedule fps(set);
  for (const SubInstance& sub : fps.subs()) {
    if (util::AlmostEqual(sub.seg_end, sub.deadline)) {
      continue;  // last segment
    }
    // seg_end must coincide with some higher-priority release.
    bool found = false;
    for (model::TaskIndex other = 0; other < set.size(); ++other) {
      if (!set.CanPreempt(other, sub.task)) continue;
      const double p = static_cast<double>(set.task(other).period);
      const double ratio = sub.seg_end / p;
      if (util::AlmostEqual(ratio, std::round(ratio))) {
        found = true;
        break;
      }
    }
    EXPECT_TRUE(found) << "seg_end " << sub.seg_end << " of task "
                       << set.task(sub.task).name;
  }
}

TEST(Expansion, TotalOrderSortedBySegmentStartThenRank) {
  const model::TaskSet set(
      {MakeTask("a", 5), MakeTask("b", 10), MakeTask("c", 20)});
  const FullyPreemptiveSchedule fps(set);
  for (std::size_t u = 1; u < fps.sub_count(); ++u) {
    const SubInstance& prev = fps.sub(u - 1);
    const SubInstance& cur = fps.sub(u);
    if (util::AlmostEqual(prev.seg_begin, cur.seg_begin)) {
      EXPECT_TRUE(set.OutranksForDispatch(prev.task, cur.task) ||
                  prev.task == cur.task);
    } else {
      EXPECT_LT(prev.seg_begin, cur.seg_begin);
    }
  }
}

TEST(Expansion, ValidatePassesAndOrderIndicesConsistent) {
  const model::TaskSet set(
      {MakeTask("a", 10), MakeTask("b", 25), MakeTask("c", 50)});
  const FullyPreemptiveSchedule fps(set);
  EXPECT_NO_THROW(fps.Validate());
  for (std::size_t u = 0; u < fps.sub_count(); ++u) {
    EXPECT_EQ(fps.sub(u).order, u);
  }
  // Every sub-instance appears in exactly one parent record.
  std::set<std::size_t> seen;
  for (const InstanceRecord& rec : fps.instances()) {
    for (std::size_t order : rec.subs) {
      EXPECT_TRUE(seen.insert(order).second);
    }
  }
  EXPECT_EQ(seen.size(), fps.sub_count());
}

TEST(Expansion, CountMatchesHelper) {
  const model::TaskSet set({MakeTask("a", 4), MakeTask("b", 12)});
  const FullyPreemptiveSchedule fps(set);
  EXPECT_EQ(CountSubInstances(set), fps.sub_count());
}

// The count without expansion equals the expansion's on random sets drawn
// from a period pool with harmonic chains (10, 20, 40, 80), near-coprime
// periods (15, 35, 48) and repeats (equal periods share a priority and
// never cut each other).  Bounded at the count it is exact; bounded below
// it, it ends above the bound.
TEST(Expansion, BoundedCountMatchesTheExpansion) {
  const std::int64_t pool[] = {10, 20, 40, 80, 15, 35, 48, 10, 20};
  const std::int64_t last = static_cast<std::int64_t>(std::size(pool)) - 1;
  stats::Rng rng(31);
  for (int trial = 0; trial < 300; ++trial) {
    SCOPED_TRACE(trial);
    std::vector<model::Task> tasks;
    const int n = 1 + static_cast<int>(rng.UniformInt(0, 5));
    for (int i = 0; i < n; ++i) {
      tasks.push_back(MakeTask("t" + std::to_string(i),
                               pool[rng.UniformInt(0, last)]));
    }
    const model::TaskSet set(tasks);
    const std::size_t subs = FullyPreemptiveSchedule(set).sub_count();
    EXPECT_EQ(CountSubInstances(set), subs);
    EXPECT_EQ(CountSubInstances(set, subs), subs);
    EXPECT_GT(CountSubInstances(set, subs - 1), subs - 1);
    EXPECT_GT(CountSubInstances(set, subs / 3), subs / 3);
  }
}

TEST(Expansion, OutOfRangeAccessThrows) {
  const model::TaskSet set({MakeTask("a", 4)});
  const FullyPreemptiveSchedule fps(set);
  EXPECT_THROW(fps.sub(99), util::InvalidArgumentError);
  EXPECT_THROW(fps.instance(99), util::InvalidArgumentError);
}

// Property sweep: structural invariants hold for random task sets.
class ExpansionPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(ExpansionPropertyTest, InvariantsOnRandomSets) {
  const model::LinearDvsModel cpu = workload::DefaultModel();
  stats::Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 1);
  workload::RandomTaskSetOptions gen;
  gen.num_tasks = 2 + GetParam() % 7;
  gen.bcec_wcec_ratio = 0.5;
  const model::TaskSet set = workload::GenerateRandomTaskSet(gen, cpu, rng);
  const FullyPreemptiveSchedule fps(set);
  EXPECT_NO_THROW(fps.Validate());
  EXPECT_LE(fps.sub_count(), 1000u);  // generator enforces the paper's cap

  // Per instance: segments tile [release, deadline]; k ascends.
  for (const InstanceRecord& rec : fps.instances()) {
    double cursor = rec.info.release;
    int k = 0;
    for (std::size_t order : rec.subs) {
      const SubInstance& sub = fps.sub(order);
      EXPECT_EQ(sub.k, k++);
      EXPECT_NEAR(sub.seg_begin, cursor, 1e-9);
      EXPECT_GT(sub.seg_end, sub.seg_begin);
      EXPECT_DOUBLE_EQ(sub.deadline, rec.info.deadline);
      cursor = sub.seg_end;
    }
    EXPECT_NEAR(cursor, rec.info.deadline, 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExpansionPropertyTest,
                         ::testing::Range(0, 12));

}  // namespace
}  // namespace dvs::fps
