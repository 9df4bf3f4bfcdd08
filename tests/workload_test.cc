// Tests for the workload library: presets, random generator, CNC, GAP and
// the motivational example.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>

#include "fps/expansion.h"
#include "sim/engine.h"
#include "stats/rng.h"
#include "util/error.h"
#include "workload/cnc.h"
#include "workload/gap.h"
#include "workload/motivation.h"
#include "workload/presets.h"
#include "workload/random_taskset.h"

namespace dvs::workload {
namespace {

TEST(Presets, DefaultModelParameters) {
  const model::LinearDvsModel cpu = DefaultModel();
  EXPECT_DOUBLE_EQ(cpu.vmin(), 0.5);
  EXPECT_DOUBLE_EQ(cpu.vmax(), 4.0);
  EXPECT_DOUBLE_EQ(cpu.MaxSpeed(), 4.0);
}

TEST(Presets, ApplyBcecRatio) {
  model::Task t;
  t.wcec = 100.0;
  ApplyBcecRatio(t, 0.1);
  EXPECT_DOUBLE_EQ(t.bcec, 10.0);
  EXPECT_DOUBLE_EQ(t.acec, 55.0);
  ApplyBcecRatio(t, 1.0);
  EXPECT_DOUBLE_EQ(t.bcec, 100.0);
  EXPECT_DOUBLE_EQ(t.acec, 100.0);
  EXPECT_THROW(ApplyBcecRatio(t, 1.5), util::InvalidArgumentError);
}

TEST(Presets, ScaleToUtilizationHitsTarget) {
  const model::LinearDvsModel cpu = DefaultModel();
  model::Task t;
  t.name = "t";
  t.period = 10;
  t.wcec = 4.0;
  ApplyBcecRatio(t, 0.5);
  const model::TaskSet set = ScaleToUtilization({t, t}, cpu, 0.7);
  EXPECT_NEAR(set.Utilization(cpu), 0.7, 1e-12);
  // Targets >= 1 are legal multi-core fleet demands (src/mp).
  const model::TaskSet fleet = ScaleToUtilization({t, t}, cpu, 1.5);
  EXPECT_NEAR(fleet.Utilization(cpu), 1.5, 1e-12);
  EXPECT_THROW(ScaleToUtilization({t}, cpu, 0.0),
               util::InvalidArgumentError);
}

TEST(RandomTaskSet, RespectsAllConstraints) {
  const model::LinearDvsModel cpu = DefaultModel();
  stats::Rng rng(1);
  for (int n : {2, 6, 10}) {
    RandomTaskSetOptions options;
    options.num_tasks = n;
    options.bcec_wcec_ratio = 0.1;
    const model::TaskSet set = GenerateRandomTaskSet(options, cpu, rng);
    EXPECT_EQ(static_cast<int>(set.size()), n);
    EXPECT_NEAR(set.Utilization(cpu), 0.7, 1e-9);
    EXPECT_LE(set.hyper_period(), 2000);
    for (const model::Task& t : set.tasks()) {
      EXPECT_NEAR(t.bcec / t.wcec, 0.1, 1e-9);
      EXPECT_NEAR(t.acec, 0.5 * (t.bcec + t.wcec), 1e-9);
      EXPECT_GE(t.period, 10);
      EXPECT_LE(t.period, 1000);
    }
    const fps::FullyPreemptiveSchedule expansion(set);
    EXPECT_LE(expansion.sub_count(), options.max_sub_instances);
    EXPECT_TRUE(sim::IsRmSchedulable(expansion, cpu));
  }
}

TEST(RandomTaskSet, PeriodsComeFromTheCandidateSet) {
  const model::LinearDvsModel cpu = DefaultModel();
  stats::Rng rng(2);
  RandomTaskSetOptions options;
  options.num_tasks = 8;
  const model::TaskSet set = GenerateRandomTaskSet(options, cpu, rng);
  const auto& candidates = CandidatePeriods();
  for (const model::Task& t : set.tasks()) {
    EXPECT_NE(std::find(candidates.begin(), candidates.end(), t.period),
              candidates.end());
  }
}

TEST(RandomTaskSet, DeterministicPerRngState) {
  const model::LinearDvsModel cpu = DefaultModel();
  RandomTaskSetOptions options;
  options.num_tasks = 5;
  stats::Rng a(77);
  stats::Rng b(77);
  const model::TaskSet sa = GenerateRandomTaskSet(options, cpu, a);
  const model::TaskSet sb = GenerateRandomTaskSet(options, cpu, b);
  ASSERT_EQ(sa.size(), sb.size());
  for (std::size_t i = 0; i < sa.size(); ++i) {
    EXPECT_EQ(sa.task(i).period, sb.task(i).period);
    EXPECT_DOUBLE_EQ(sa.task(i).wcec, sb.task(i).wcec);
  }
}

/// FNV-1a over the 64-bit words fed to it.
struct Digest {
  std::uint64_t value = 0xcbf29ce484222325ULL;
  void Add(std::uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      value = (value ^ ((word >> (8 * byte)) & 0xff)) * 0x100000001b3ULL;
    }
  }
  void Add(double x) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &x, sizeof bits);
    Add(bits);
  }
};

// Every draw of fixed-seed generators, to the bit: periods, cycle counts and
// the generator's state after each draw (so a change in how many candidates
// a draw rejects also shows), over single-core sets at the paper's and a
// tight sub-instance cap and over multi-core fleet demands.  A change to the
// cap or RM tests that moves any draw fails here.
TEST(RandomTaskSet, DrawsAreUnchanged) {
  const model::LinearDvsModel cpu = DefaultModel();
  Digest digest;
  int draws = 0;
  for (int n = 2; n <= 10; n += 2) {
    for (double ratio : {0.1, 0.5, 0.9}) {
      for (std::size_t cap : {std::size_t{n <= 4 ? 40u : 50u * n},
                              std::size_t{1000}}) {
        for (double utilization : {0.7, 1.6}) {
          if (n == 2 && utilization > 1.0) {
            continue;  // a task would need more than one core
          }
          RandomTaskSetOptions options;
          options.num_tasks = n;
          options.bcec_wcec_ratio = ratio;
          options.max_sub_instances = cap;
          options.utilization = utilization;
          stats::Rng rng(static_cast<std::uint64_t>(
              1000 * n + 100 * static_cast<int>(10 * ratio) +
              static_cast<int>(cap) + (utilization > 1.0 ? 7 : 0)));
          for (int k = 0; k < 3; ++k) {
            const model::TaskSet set = GenerateRandomTaskSet(options, cpu, rng);
            for (const model::Task& t : set.tasks()) {
              digest.Add(static_cast<std::uint64_t>(t.period));
              digest.Add(t.wcec);
              digest.Add(t.acec);
              digest.Add(t.bcec);
            }
            digest.Add(rng.NextU64());
            ++draws;
          }
        }
      }
    }
  }
  EXPECT_EQ(draws, 162);
  EXPECT_EQ(digest.value, 0xd821fef37df23548ULL);
}

TEST(Cnc, StructureMatchesReconstruction) {
  const model::LinearDvsModel cpu = DefaultModel();
  CncOptions options;
  options.bcec_wcec_ratio = 0.5;
  const model::TaskSet set = CncTaskSet(options, cpu);
  EXPECT_EQ(set.size(), 8u);
  EXPECT_EQ(set.hyper_period(), 4800);
  EXPECT_NEAR(set.Utilization(cpu), 0.7, 1e-9);
  const fps::FullyPreemptiveSchedule expansion(set);
  EXPECT_EQ(expansion.sub_count(), 64u);
  EXPECT_TRUE(sim::IsRmSchedulable(expansion, cpu));
}

TEST(Gap, StructureMatchesReconstruction) {
  const model::LinearDvsModel cpu = DefaultModel();
  GapOptions options;
  options.bcec_wcec_ratio = 0.5;
  const model::TaskSet set = GapTaskSet(options, cpu);
  EXPECT_EQ(set.size(), 9u);
  EXPECT_EQ(set.hyper_period(), 1000);
  EXPECT_NEAR(set.Utilization(cpu), 0.7, 1e-9);
  const fps::FullyPreemptiveSchedule expansion(set);
  EXPECT_LE(expansion.sub_count(), 1000u);  // the paper's cap
  EXPECT_TRUE(sim::IsRmSchedulable(expansion, cpu));
}

TEST(Cnc, RatioSweepKeepsWcecFixed) {
  const model::LinearDvsModel cpu = DefaultModel();
  CncOptions a;
  a.bcec_wcec_ratio = 0.1;
  CncOptions b;
  b.bcec_wcec_ratio = 0.9;
  const model::TaskSet sa = CncTaskSet(a, cpu);
  const model::TaskSet sb = CncTaskSet(b, cpu);
  for (std::size_t i = 0; i < sa.size(); ++i) {
    EXPECT_NEAR(sa.task(i).wcec, sb.task(i).wcec, 1e-9);
    EXPECT_LT(sa.task(i).acec, sb.task(i).acec);
  }
}

TEST(Motivation, ReconstructionInvariants) {
  const model::TaskSet set = MotivationTaskSet();
  const model::LinearDvsModel cpu = MotivationModel();
  ASSERT_EQ(set.size(), 3u);
  EXPECT_EQ(set.hyper_period(), 20);
  for (const model::Task& t : set.tasks()) {
    EXPECT_DOUBLE_EQ(t.wcec, 20.0e6);
    EXPECT_DOUBLE_EQ(t.acec, 10.0e6);
    // 20 V*ms of demand: at 2 V a task takes 10 ms.
    EXPECT_NEAR(t.wcec / cpu.SpeedAt(2.0), 10.0, 1e-9);
  }
  // The WCEC-optimal uniform schedule runs at 3 V: 3 tasks x 20/3 ms.
  EXPECT_NEAR(set.task(0).wcec / cpu.SpeedAt(3.0), 20.0 / 3.0, 1e-9);
  // Worst-case utilisation at Vmax: 60/80 = 0.75.
  EXPECT_NEAR(set.Utilization(cpu), 0.75, 1e-12);
}

TEST(Motivation, EndTimeHelpers) {
  const auto wcs = MotivationWcsEndTimes();
  const auto acs = MotivationAcsEndTimes();
  ASSERT_EQ(wcs.size(), 3u);
  ASSERT_EQ(acs.size(), 3u);
  EXPECT_NEAR(wcs[0], 6.667, 1e-3);
  EXPECT_DOUBLE_EQ(acs[0], 10.0);
  EXPECT_DOUBLE_EQ(acs[2], wcs[2]);  // both end at the frame boundary
}

}  // namespace
}  // namespace dvs::workload
