// Tests for the expected-case DP dispatch (sim::ExpectedCasePolicy), driven
// directly through Dispatch on hand-built contexts, with no ALM solve.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "fps/expansion.h"
#include "sim/policy.h"
#include "sim/static_schedule.h"
#include "util/error.h"
#include "workload/presets.h"

namespace dvs::sim {
namespace {

model::Task MakeTask(std::string name, std::int64_t period, double wcec,
                     double bcec) {
  model::Task t;
  t.name = std::move(name);
  t.period = period;
  t.wcec = wcec;
  t.bcec = bcec;
  t.acec = 0.5 * (wcec + bcec);
  return t;
}

// Two tasks over a 20 ms hyper-period.  Total order: a's first instance
// (sub 0), b's first segment (sub 1), a's second instance (sub 2), b's
// second segment (sub 3).  b's worst-case budget is split 6 + 6, so sub 3
// dispatches after 6 cycles of worst-case progress.
struct Fixture {
  Fixture()
      : set({MakeTask("a", 10, 8.0, 2.0), MakeTask("b", 20, 12.0, 3.0)}),
        cpu(workload::DefaultModel()),
        fps(set),
        schedule(fps, {3.0, 10.0, 13.0, 20.0}, {8.0, 6.0, 8.0, 6.0}) {}

  model::TaskSet set;
  model::LinearDvsModel cpu;
  fps::FullyPreemptiveSchedule fps;
  StaticSchedule schedule;
};

// Hand-written calibration draws, sorted, inside each task's [BCEC, WCEC].
std::vector<std::vector<double>> Draws() {
  return {{2.5, 3.0, 3.0, 3.5, 4.0, 4.0, 4.5, 5.5, 6.0, 7.5},
          {3.5, 4.0, 5.0, 5.0, 6.5, 7.0, 8.0, 9.5, 11.0, 12.0}};
}

// A dispatch at the start of sub `order`'s segment with `budget` worst-case
// cycles left and a window of `window` ms to its end-time.
DispatchContext At(const Fixture& f, std::size_t order, double budget,
                   double window) {
  const fps::SubInstance& sub = f.fps.sub(order);
  DispatchContext ctx;
  ctx.task = sub.task;
  ctx.sub_order = order;
  ctx.budget_remaining = budget;
  ctx.sub_release = sub.seg_begin;
  ctx.local_time = sub.seg_begin;
  ctx.sub_end_time = sub.seg_begin + window;
  ctx.instance_deadline = sub.deadline;
  return ctx;
}

struct PinCase {
  std::int64_t bins;
  bool scaled;           // task_scale {0.7, 1.3} vs none
  std::size_t order;     // sub-instance
  double budget_frac;    // remaining budget / worst-case budget (progress)
  double speed;          // budget / window: the greedy stretch speed
};

// The pinned grid: dp_bins x task_scale x sub x progress x window.
std::vector<PinCase> PinGrid() {
  std::vector<PinCase> grid;
  for (std::int64_t bins : {1, 8, 64}) {
    for (bool scaled : {false, true}) {
      for (std::size_t order : {0, 1, 3}) {
        for (double budget_frac : {1.0, 0.4}) {
          for (double speed : {0.3, 1.1, 2.5, 3.9}) {
            grid.push_back({bins, scaled, order, budget_frac, speed});
          }
        }
      }
    }
  }
  return grid;
}

DispatchDecision Decide(const Fixture& f, const PinCase& c) {
  const std::vector<double> scale = {0.7, 1.3};
  const ExpectedCasePolicy policy(f.fps, f.schedule, f.cpu, Draws(), c.bins,
                                  c.scaled ? &scale : nullptr);
  const double budget = c.budget_frac * f.schedule.worst_budget(c.order);
  return policy.Dispatch(At(f, c.order, budget, budget / c.speed));
}

std::string Label(const PinCase& c) {
  char buf[128];
  std::snprintf(buf, sizeof(buf),
                "bins=%lld scaled=%d sub=%zu budget_frac=%g speed=%g",
                static_cast<long long>(c.bins), c.scaled ? 1 : 0, c.order,
                c.budget_frac, c.speed);
  return buf;
}

// Exact decision bits over PinGrid(), in grid order: the dispatched voltage
// and the cycle cap (0 = no cap).  Any kernel change that moves a single
// bit of a decision fails here.
struct Pin {
  double voltage;
  double cycle_cap;
};
const Pin kPins[] = {
    {0x1p-1, 0x0p+0},
    {0x1.199999999999ap+0, 0x0p+0},
    {0x1.4p+1, 0x0p+0},
    {0x1.f333333333332p+1, 0x0p+0},
    {0x1p-1, 0x0p+0},
    {0x1.1999999999999p+0, 0x0p+0},
    {0x1.4p+1, 0x0p+0},
    {0x1.f333333333333p+1, 0x0p+0},
    {0x1p-1, 0x0p+0},
    {0x1.199999999999ap+0, 0x0p+0},
    {0x1.4p+1, 0x0p+0},
    {0x1.f333333333333p+1, 0x0p+0},
    {0x1p-1, 0x0p+0},
    {0x1.1999999999999p+0, 0x0p+0},
    {0x1.4p+1, 0x0p+0},
    {0x1.f333333333332p+1, 0x0p+0},
    {0x1p-1, 0x0p+0},
    {0x1.199999999999bp+0, 0x0p+0},
    {0x1.3ffffffffffffp+1, 0x0p+0},
    {0x1.f333333333334p+1, 0x0p+0},
    {0x1p-1, 0x0p+0},
    {0x1.199999999999bp+0, 0x0p+0},
    {0x1.3fffffffffffcp+1, 0x0p+0},
    {0x1.f33333333333bp+1, 0x0p+0},
    {0x1p-1, 0x0p+0},
    {0x1.1999999999999p+0, 0x0p+0},
    {0x1.4p+1, 0x0p+0},
    {0x1.f333333333333p+1, 0x0p+0},
    {0x1p-1, 0x0p+0},
    {0x1.199999999999ap+0, 0x0p+0},
    {0x1.4p+1, 0x0p+0},
    {0x1.f333333333333p+1, 0x0p+0},
    {0x1p-1, 0x0p+0},
    {0x1.199999999999ap+0, 0x0p+0},
    {0x1.4p+1, 0x0p+0},
    {0x1.f333333333333p+1, 0x0p+0},
    {0x1p-1, 0x0p+0},
    {0x1.199999999999ap+0, 0x0p+0},
    {0x1.4p+1, 0x0p+0},
    {0x1.f333333333332p+1, 0x0p+0},
    {0x1p-1, 0x0p+0},
    {0x1.199999999999bp+0, 0x0p+0},
    {0x1.3ffffffffffffp+1, 0x0p+0},
    {0x1.f333333333334p+1, 0x0p+0},
    {0x1p-1, 0x0p+0},
    {0x1.199999999999ap+0, 0x0p+0},
    {0x1.3fffffffffffcp+1, 0x0p+0},
    {0x1.f33333333333ap+1, 0x0p+0},
    {0x1p-1, 0x0p+0},
    {0x1.a7edce88a556p-1, 0x1p+1},
    {0x1.e87e4f262d51p+0, 0x1p+1},
    {0x1.db99a5ff1f6dp+1, 0x1p+1},
    {0x1p-1, 0x1.6666666666666p+1},
    {0x1.9bb3f05b1fe22p-1, 0x1.999999999999ap-1},
    {0x1.ea0c05d5c8a99p+0, 0x1.999999999999ap-1},
    {0x1.d05f417d05f3dp+1, 0x1.999999999999ap-1},
    {0x1p-1, 0x0p+0},
    {0x1.0f0adac3f4ad2p+0, 0x1.ep+1},
    {0x1.3400b2c7677efp+1, 0x1.ep+1},
    {0x1.ebd299da2ae07p+1, 0x1.ep+1},
    {0x1p-1, 0x0p+0},
    {0x1.06ec4a63d9b3dp+0, 0x1.3333333333334p-2},
    {0x1.2ac6b1a003067p+1, 0x1.3333333333334p-2},
    {0x1.dcefb7cb9df28p+1, 0x1.3333333333334p-2},
    {0x1p-1, 0x0p+0},
    {0x1.b985632353672p-1, 0x1.8p-1},
    {0x1.f5ba7c4b0d521p+0, 0x1.8p-1},
    {0x1.b6d7ac79bc139p+1, 0x1.8p-1},
    {0x1p-1, 0x0p+0},
    {0x1.036b531464b79p+0, 0x1.3333333333334p+0},
    {0x1.26cb6a0b89b9p+1, 0x1.3333333333334p+0},
    {0x1.eab7a40edb9edp+1, 0x1.3333333333334p+0},
    {0x1p-1, 0x1.4p+2},
    {0x1.382cf69112d7bp-1, 0x1p+1},
    {0x1.9f8ef86e0025cp+0, 0x1p+1},
    {0x1.d05f417d05f3ep+1, 0x1p+1},
    {0x1p-1, 0x1.999999999999ap-2},
    {0x1p-1, 0x1.999999999999ap-2},
    {0x1.611a7b9611a7bp-1, 0x1.999999999999ap-2},
    {0x1.a8d9df51b3be3p+1, 0x1.999999999999ap-2},
    {0x1p-1, 0x0p+0},
    {0x1.15dcacccef2b4p+0, 0x1.2p+2},
    {0x1.3bc095d19b6b5p+1, 0x1.2p+2},
    {0x1.ef130a9419636p+1, 0x1.2p+2},
    {0x1p-1, 0x0p+0},
    {0x1.0fe97b21167c6p+0, 0x1.ccccccccccccep-1},
    {0x1.34fdaed425304p+1, 0x1.ccccccccccccep-1},
    {0x1.e5088e2653eccp+1, 0x1.ccccccccccccep-1},
    {0x1p-1, 0x0p+0},
    {0x1.d7cdc8e8830fdp-1, 0x1.8p-1},
    {0x1.0c12039b61bd3p+1, 0x1.8p-1},
    {0x1.c204a2fc9fae8p+1, 0x1.8p-1},
    {0x1p-1, 0x0p+0},
    {0x1.0981b155ca976p+0, 0x1.ccccccccccccep-1},
    {0x1.2db6498466376p+1, 0x1.ccccccccccccep-1},
    {0x1.df3b645a1cad2p+1, 0x1.ccccccccccccep-1},
    {0x1p-1, 0x1.ep+2},
    {0x1.a4d33bf130206p-1, 0x1.4p+1},
    {0x1.eb0348912abb7p+0, 0x1.4p+1},
    {0x1.dc79bed5316ecp+1, 0x1.4p+1},
    {0x1p-1, 0x1.5fffffffffffcp+1},
    {0x1.91e8e82ccbebep-1, 0x1.4cccccccccccdp-1},
    {0x1.e2a50af07791dp+0, 0x1.4cccccccccccdp-1},
    {0x1.c9ca26339f847p+1, 0x1.4cccccccccccdp-1},
    {0x1p-1, 0x0p+0},
    {0x1.0e312d4701dep+0, 0x1.bcp+1},
    {0x1.3309565c53939p+1, 0x1.bcp+1},
    {0x1.eb121920e714ap+1, 0x1.bcp+1},
    {0x1p-1, 0x0p+0},
    {0x1.06671ffb73758p+0, 0x1.8p-2},
    {0x1.2a2f5e8677912p+1, 0x1.8p-2},
    {0x1.dd19f5d296819p+1, 0x1.8p-2},
    {0x1p-1, 0x0p+0},
    {0x1.b104a29377585p-1, 0x1.ep-2},
    {0x1.ec10e74a7bfb7p+0, 0x1.ep-2},
    {0x1.b54f69f502effp+1, 0x1.ep-2},
    {0x1p-1, 0x0p+0},
    {0x1.fef8edc0b5daep-1, 0x1.599999999999cp+0},
    {0x1.229bdc115eaf9p+1, 0x1.599999999999cp+0},
    {0x1.e9adb07ac4b62p+1, 0x1.599999999999cp+0},
    {0x1p-1, 0x1.5p+2},
    {0x1.3fe3b0c05585ep-1, 0x1.cp+0},
    {0x1.a3367c78fbf1fp+0, 0x1.cp+0},
    {0x1.d0155db208bd9p+1, 0x1.cp+0},
    {0x1p-1, 0x1.cccccccccccccp-2},
    {0x1p-1, 0x1.cccccccccccccp-2},
    {0x1.84dc5abbf3097p-1, 0x1.cccccccccccccp-2},
    {0x1.b10a7c9b7358ep+1, 0x1.cccccccccccccp-2},
    {0x1p-1, 0x0p+0},
    {0x1.15f6397cb9bbp+0, 0x1.2p+2},
    {0x1.3bdd9e6ad30eap+1, 0x1.2p+2},
    {0x1.ef61f32c7a678p+1, 0x1.2p+2},
    {0x1p-1, 0x0p+0},
    {0x1.107c33ff11dc4p+0, 0x1.dfffffffffffdp-1},
    {0x1.35a469a1da1d2p+1, 0x1.dfffffffffffdp-1},
    {0x1.e67bacd6fd4fdp+1, 0x1.dfffffffffffdp-1},
    {0x1p-1, 0x0p+0},
    {0x1.d68e6e6aeea29p-1, 0x1.ep-2},
    {0x1.0b5c90311edc4p+1, 0x1.ep-2},
    {0x1.be9a9725ec383p+1, 0x1.ep-2},
    {0x1p-1, 0x0p+0},
    {0x1.08cf43726fdap+0, 0x1.9333333333331p-1},
    {0x1.2ceb86d37f1a6p+1, 0x1.9333333333331p-1},
    {0x1.dc82beb05c4d7p+1, 0x1.9333333333331p-1},
};

TEST(ExpectedCaseDispatch, DecisionsArePinnedBitForBit) {
  const Fixture f;
  const std::vector<PinCase> grid = PinGrid();
  ASSERT_EQ(grid.size(), sizeof(kPins) / sizeof(kPins[0]));
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const DispatchDecision d = Decide(f, grid[i]);
    EXPECT_EQ(d.voltage, kPins[i].voltage) << Label(grid[i]);
    EXPECT_EQ(d.cycle_cap.value_or(0.0), kPins[i].cycle_cap)
        << Label(grid[i]);
    EXPECT_FALSE(d.not_before.has_value()) << Label(grid[i]);
  }
}

// The water-filling profile of every DP dispatch in the pinned grid, checked
// against the optimality conditions of
//   min sum_j S_j w s_j^2  s.t.  sum_j w / s_j <= window, s_j in [smin, smax].
TEST(ExpectedCaseDispatch, WaterFillingProfileIsOptimal) {
  const Fixture f;
  const double smin = f.cpu.MinSpeed();
  const double smax = f.cpu.MaxSpeed();
  const std::vector<double> scale = {0.7, 1.3};
  int shaped = 0;
  for (const PinCase& c : PinGrid()) {
    const ExpectedCasePolicy policy(f.fps, f.schedule, f.cpu, Draws(),
                                    c.bins, c.scaled ? &scale : nullptr);
    const double budget = c.budget_frac * f.schedule.worst_budget(c.order);
    const double window = budget / c.speed;
    policy.Dispatch(At(f, c.order, budget, window));
    if (policy.dp_dispatches() == 0) {
      continue;
    }
    const std::vector<double>& weight = policy.profile_weights();
    const std::vector<double>& speed = policy.profile_speeds();
    const double bin_w = budget / static_cast<double>(c.bins);
    double time = 0.0;
    bool any_free = false;
    double free_product = 0.0;  // s_j * cbrt(S_j) of the first free bin
    for (std::size_t j = 0; j < speed.size(); ++j) {
      time += bin_w / speed[j];
      EXPECT_GE(speed[j], smin) << Label(c) << " bin " << j;
      EXPECT_LE(speed[j], smax) << Label(c) << " bin " << j;
      if (j > 0) {
        EXPECT_GE(speed[j], speed[j - 1]) << Label(c) << " bin " << j;
      }
      if (speed[j] > smin && speed[j] < smax) {
        const double product = speed[j] * std::cbrt(weight[j]);
        if (!any_free) {
          free_product = product;
          any_free = true;
        }
        EXPECT_NEAR(product, free_product, 1e-12 * free_product)
            << Label(c) << " bin " << j;
      }
    }
    if (any_free) {
      // An interior optimum spends the whole window.
      EXPECT_NEAR(time, window, 1e-9 * window) << Label(c);
      ++shaped;
    } else {
      EXPECT_LE(time, window * (1.0 + 1e-12)) << Label(c);
    }
  }
  EXPECT_GT(shaped, 20);
}

TEST(ExpectedCaseDispatch, FlatProfileSetsNoCycleCap) {
  // Every draw at WCEC: each bin is reached with probability 1, so the
  // profile is flat and the dispatch is one greedy-speed slice.
  const Fixture f;
  const std::vector<std::vector<double>> worst = {{8.0, 8.0}, {12.0}};
  const ExpectedCasePolicy policy(f.fps, f.schedule, f.cpu, worst, 8);
  const DispatchDecision d = policy.Dispatch(At(f, 1, 6.0, 4.0));
  EXPECT_EQ(policy.dp_dispatches(), 1);
  EXPECT_FALSE(d.cycle_cap.has_value());
  for (double s : policy.profile_speeds()) {
    EXPECT_EQ(s, policy.profile_speeds()[0]);
  }
  EXPECT_NEAR(d.voltage, f.cpu.VoltageForWork(6.0, 4.0), 1e-12);
}

TEST(ExpectedCaseDispatch, DegenerateBranches) {
  const Fixture f;
  const ExpectedCasePolicy policy(f.fps, f.schedule, f.cpu, Draws(), 8);
  const double vmax = f.cpu.vmax();

  // Release gate: before the segment start the instance is parked.
  DispatchContext early = At(f, 3, 6.0, 8.0);
  early.local_time = early.sub_release - 1.0;
  DispatchDecision d = policy.Dispatch(early);
  ASSERT_TRUE(d.not_before.has_value());
  EXPECT_EQ(*d.not_before, early.sub_release);
  EXPECT_EQ(d.voltage, vmax);

  // No window left (or an overrun one): flat out.
  for (double window : {0.0, -1.0}) {
    d = policy.Dispatch(At(f, 1, 6.0, window));
    EXPECT_EQ(d.voltage, vmax);
    EXPECT_FALSE(d.cycle_cap.has_value());
    EXPECT_FALSE(d.not_before.has_value());
  }

  // No budget left: flat out.
  d = policy.Dispatch(At(f, 1, 0.0, 4.0));
  EXPECT_EQ(d.voltage, vmax);

  // budget / smax >= window: even flat out only just fits.
  d = policy.Dispatch(At(f, 1, 6.0, 6.0 / f.cpu.MaxSpeed()));
  EXPECT_EQ(d.voltage, vmax);
  EXPECT_FALSE(d.cycle_cap.has_value());

  // Progress past every draw (b's draws end at 5; sub 3 starts after 6
  // worst-case cycles): survival is 0, so the greedy stretch applies.
  const std::vector<std::vector<double>> short_b = {Draws()[0],
                                                    {3.5, 4.0, 5.0}};
  const ExpectedCasePolicy spent(f.fps, f.schedule, f.cpu, short_b, 8);
  d = spent.Dispatch(At(f, 3, 4.0, 5.0));
  EXPECT_EQ(d.voltage, f.cpu.VoltageForWork(4.0, 5.0));
  EXPECT_FALSE(d.cycle_cap.has_value());

  EXPECT_EQ(policy.dp_dispatches(), 0);
  EXPECT_EQ(spent.dp_dispatches(), 0);
}

TEST(ExpectedCaseDispatch, TaskScaleEqualsScaledDraws) {
  // Pr[f X > c] = Pr[X > c / f]: stretching b's law by f must dispatch like
  // calibrating on draws multiplied by f, up to the survival grid's
  // resolution.  The base draws are chosen so both f X and X stay inside
  // b's [BCEC, WCEC] = [3, 12], where the grid describes the law.
  const Fixture f;
  for (double stretch : {0.8, 1.25}) {
    const double lo = std::max(3.0, 3.0 / stretch);
    const double hi = std::min(12.0, 12.0 / stretch);
    std::vector<double> base;
    std::vector<double> scaled;
    for (int k = 0; k <= 900; ++k) {
      base.push_back(lo + (hi - lo) * k / 900.0);
      scaled.push_back(stretch * base.back());
    }
    const std::vector<double> scale = {1.0, stretch};
    const ExpectedCasePolicy by_scale(f.fps, f.schedule, f.cpu,
                                      {Draws()[0], base}, 8, &scale);
    const ExpectedCasePolicy by_draws(f.fps, f.schedule, f.cpu,
                                      {Draws()[0], scaled}, 8);
    for (double budget : {6.0, 3.0}) {
      for (double speed : {1.1, 2.5}) {
        const std::string label = "stretch " + std::to_string(stretch) +
                                  " budget " + std::to_string(budget) +
                                  " speed " + std::to_string(speed);
        const DispatchContext ctx = At(f, 1, budget, budget / speed);
        const DispatchDecision a = by_scale.Dispatch(ctx);
        const DispatchDecision b = by_draws.Dispatch(ctx);
        for (std::size_t j = 0; j < 8; ++j) {
          EXPECT_NEAR(by_scale.profile_weights()[j],
                      by_draws.profile_weights()[j], 5e-3)
              << label << " bin " << j;
        }
        EXPECT_NEAR(a.voltage, b.voltage, 1e-3 * b.voltage) << label;
        EXPECT_EQ(a.cycle_cap.has_value(), b.cycle_cap.has_value())
            << label;
      }
    }
    EXPECT_EQ(by_scale.dp_dispatches(), 4);
    EXPECT_EQ(by_draws.dp_dispatches(), 4);
  }
}

TEST(ExpectedCaseDispatch, RejectsOutOfRangeBins) {
  const Fixture f;
  for (std::int64_t bins : {-1, 0, 65, 100}) {
    EXPECT_THROW(
        ExpectedCasePolicy(f.fps, f.schedule, f.cpu, Draws(), bins),
        util::InvalidArgumentError)
        << bins;
  }
  for (std::int64_t bins : {std::int64_t{1}, ExpectedCasePolicy::kMaxBins}) {
    EXPECT_NO_THROW(
        ExpectedCasePolicy(f.fps, f.schedule, f.cpu, Draws(), bins));
  }
}

TEST(ExpectedCaseDispatch, RejectsUnsortedDraws) {
  const Fixture f;
  const std::vector<std::vector<double>> unsorted = {Draws()[0],
                                                     {5.0, 4.0, 6.0}};
  EXPECT_THROW(ExpectedCasePolicy(f.fps, f.schedule, f.cpu, unsorted, 8),
               util::InvalidArgumentError);
}

TEST(ExpectedCaseDispatch, RejectsNonFiniteDriftStretch) {
  const Fixture f;
  for (double bad : {std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity(),
                     -std::numeric_limits<double>::infinity()}) {
    const std::vector<double> scale = {1.0, bad};
    EXPECT_THROW(
        ExpectedCasePolicy(f.fps, f.schedule, f.cpu, Draws(), 8, &scale),
        util::InvalidArgumentError)
        << bad;
  }
  const std::vector<double> finite = {1.0, 1.3};
  EXPECT_NO_THROW(
      ExpectedCasePolicy(f.fps, f.schedule, f.cpu, Draws(), 8, &finite));
}

}  // namespace
}  // namespace dvs::sim
