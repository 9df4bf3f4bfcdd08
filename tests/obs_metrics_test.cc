// obs::MetricsRegistry contract tests.
//
// Pins the builtin id -> name table (persisted manifests compare these
// names across runs), the deterministic Aggregate fold (identical charges
// split across 1 vs 4 shards aggregate identically), histogram bucket-edge
// semantics, and the one-writer-per-shard threading model — the concurrent
// test runs real threads, one shard each, and must come out clean under
// TSan because shards share no mutable state.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "util/error.h"

namespace dvs::obs {
namespace {

TEST(MetricsRegistry, BuiltinNamesArePinnedInIdOrder) {
  const MetricsRegistry registry;
  const std::vector<std::string> expected = {
      "grid.cells_evaluated", "grid.cells_failed",
      "grid.cells_skipped",   "solve.wcs_solves",
      "solve.acs_solves",     "solve.planned_solves",
      "solve.cache_hits",     "prepare.cache_hits",
      "prepare.cache_misses", "calibrate.runs",
      "calibrate.cache_hits", "solver.outer_iterations",
      "solver.inner_iterations", "solver.evaluations",
      "sim.deadline_misses",  "solve.fallbacks",
      "run.threads",          "run.shard_count",
      "cell.wall_us",         "solve.wall_us",
      "prepare.evictions",    "prepare.resident_bytes",
      "persist.cache_hits",   "persist.cache_misses",
      "persist.verify_rejects", "persist.write_backs",
      "family.steals",        "family.count",
      "family.cells_per_worker", "drift.replans",
      "online.dp_dispatches", "prepare.oversized_rejects",
      "dpm.sleeps",           "dpm.migrations",
      "dpm.sleep_energy",     "sim.sampler_draws",
      "sim.replayed_draws",   "solve.wcs_gap",
      "solve.wcs_fallbacks",  "solve.wcs_fallbacks.no_interior",
      "solve.wcs_fallbacks.breakdown", "solve.wcs_fallbacks.gap",
      "solve.wcs_fallbacks.repair", "solver.inner_capped",
      "solver.final_violation", "repair.max_shift",
      "solve.acs_fallbacks",  "solve.acs_fallbacks.breakdown",
      "solve.acs_fallbacks.no_convergence", "solve.acs_fallbacks.repair",
      "solve.acs_fallbacks.worse", "solve.acs_kkt",
      "solve.acs_newton_steps", "solve.acs_patterns",
      "fleet.mission_hits",   "fleet.mission_misses",
  };
  ASSERT_EQ(expected.size(), metric::kBuiltinCount);
  ASSERT_EQ(registry.MetricCount(), metric::kBuiltinCount);
  for (MetricId id = 0; id < metric::kBuiltinCount; ++id) {
    EXPECT_EQ(registry.MetricName(id), expected[id]) << "id " << id;
  }
}

TEST(MetricsRegistry, BuiltinKindsMatchTheIdTable) {
  MetricsRegistry registry;
  const std::vector<AggregatedMetric> agg = registry.Aggregate();
  ASSERT_EQ(agg.size(), metric::kBuiltinCount);
  EXPECT_EQ(agg[metric::kCellsEvaluated].kind, MetricKind::kCounter);
  EXPECT_EQ(agg[metric::kThreads].kind, MetricKind::kGauge);
  EXPECT_EQ(agg[metric::kShardCount].kind, MetricKind::kGauge);
  EXPECT_EQ(agg[metric::kCellWallUs].kind, MetricKind::kHistogram);
  EXPECT_EQ(agg[metric::kSolveWallUs].kind, MetricKind::kHistogram);
  EXPECT_EQ(agg[metric::kPrepareEvictions].kind, MetricKind::kCounter);
  EXPECT_EQ(agg[metric::kPreparedBytes].kind, MetricKind::kGauge);
  EXPECT_EQ(agg[metric::kPersistHits].kind, MetricKind::kCounter);
  EXPECT_EQ(agg[metric::kPersistMisses].kind, MetricKind::kCounter);
  EXPECT_EQ(agg[metric::kPersistRejects].kind, MetricKind::kCounter);
  EXPECT_EQ(agg[metric::kPersistWriteBacks].kind, MetricKind::kCounter);
  EXPECT_EQ(agg[metric::kFamilySteals].kind, MetricKind::kCounter);
  EXPECT_EQ(agg[metric::kFamilyCount].kind, MetricKind::kGauge);
  EXPECT_EQ(agg[metric::kFamilyCellsPerWorker].kind, MetricKind::kHistogram);
  EXPECT_EQ(agg[metric::kDriftReplans].kind, MetricKind::kCounter);
  EXPECT_EQ(agg[metric::kOnlineDpDispatches].kind, MetricKind::kCounter);
  EXPECT_EQ(agg[metric::kPrepareOversized].kind, MetricKind::kCounter);
  EXPECT_EQ(agg[metric::kDpmSleeps].kind, MetricKind::kCounter);
  EXPECT_EQ(agg[metric::kDpmMigrations].kind, MetricKind::kCounter);
  EXPECT_EQ(agg[metric::kDpmSleepEnergy].kind, MetricKind::kHistogram);
  EXPECT_EQ(agg[metric::kSolverFinalViolation].kind, MetricKind::kHistogram);
  EXPECT_EQ(agg[metric::kRepairMaxShift].kind, MetricKind::kHistogram);
}

/// The determinism invariant: the same set of charges, however they are
/// distributed over shards, aggregates to the same totals.  This is what
/// makes manifest metrics comparable between a 1-thread and a 4-thread run
/// when the charges themselves are result-driven.
TEST(MetricsRegistry, AggregationIsShardCountInvariant) {
  const auto charge = [](MetricsShard& shard, int i) {
    shard.Count(metric::kCellsEvaluated);
    shard.Count(metric::kSolverInner, 10 + i);
    shard.Observe(metric::kCellWallUs, 50.0 * (i + 1));
  };

  MetricsRegistry serial;
  serial.EnsureShards(1);
  for (int i = 0; i < 8; ++i) {
    charge(serial.Shard(0), i);
  }

  MetricsRegistry sharded;
  sharded.EnsureShards(4);
  for (int i = 0; i < 8; ++i) {
    charge(sharded.Shard(static_cast<std::size_t>(i) % 4), i);
  }

  const std::vector<AggregatedMetric> a = serial.Aggregate();
  const std::vector<AggregatedMetric> b = sharded.Aggregate();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t id = 0; id < a.size(); ++id) {
    EXPECT_EQ(a[id].count, b[id].count) << a[id].name;
    EXPECT_DOUBLE_EQ(a[id].value, b[id].value) << a[id].name;
    EXPECT_DOUBLE_EQ(a[id].min, b[id].min) << a[id].name;
    EXPECT_DOUBLE_EQ(a[id].max, b[id].max) << a[id].name;
    EXPECT_EQ(a[id].buckets, b[id].buckets) << a[id].name;
  }
  EXPECT_EQ(a[metric::kCellsEvaluated].count, 8);
  EXPECT_EQ(a[metric::kSolverInner].count, 8 * 10 + (0 + 1 + 2 + 3 + 4 + 5 + 6 + 7));
}

TEST(MetricsRegistry, HistogramBucketEdges) {
  // Builtin wall histograms use bounds {100, 1e3, 1e4, 1e5, 1e6, 1e7}:
  // a value lands in the first bucket with v <= bound, overflow last.
  MetricsRegistry registry;
  registry.EnsureShards(1);
  MetricsShard& shard = registry.Shard(0);
  shard.Observe(metric::kCellWallUs, 0.0);     // <= 100 -> bucket 0
  shard.Observe(metric::kCellWallUs, 100.0);   // edge inclusive -> bucket 0
  shard.Observe(metric::kCellWallUs, 100.5);   // -> bucket 1
  shard.Observe(metric::kCellWallUs, 1e3);     // edge -> bucket 1
  shard.Observe(metric::kCellWallUs, 5e6);     // -> bucket 5
  shard.Observe(metric::kCellWallUs, 2e7);     // past last bound -> overflow

  const AggregatedMetric hist = registry.Aggregate()[metric::kCellWallUs];
  ASSERT_EQ(hist.bounds.size(), 6u);
  ASSERT_EQ(hist.buckets.size(), 7u);
  EXPECT_EQ(hist.buckets, (std::vector<std::int64_t>{2, 2, 0, 0, 0, 1, 1}));
  EXPECT_EQ(hist.count, 6);
  EXPECT_DOUBLE_EQ(hist.min, 0.0);
  EXPECT_DOUBLE_EQ(hist.max, 2e7);
  EXPECT_DOUBLE_EQ(hist.value, 0.0 + 100.0 + 100.5 + 1e3 + 5e6 + 2e7);
}

TEST(MetricsRegistry, GaugeAggregatesMaxOverSetShardsOnly) {
  MetricsRegistry registry;
  registry.EnsureShards(3);
  registry.Shard(0).SetGauge(metric::kThreads, 4.0);
  registry.Shard(2).SetGauge(metric::kThreads, 2.0);
  // Shard 1 never sets the gauge; its default 0 must not participate —
  // and negative gauges must not be "beaten" by an unset shard's zero.
  registry.Shard(0).SetGauge(metric::kShardCount, -3.0);

  const std::vector<AggregatedMetric> agg = registry.Aggregate();
  EXPECT_DOUBLE_EQ(agg[metric::kThreads].value, 4.0);
  EXPECT_DOUBLE_EQ(agg[metric::kShardCount].value, -3.0);
}

TEST(MetricsRegistry, CustomMetricsAppendAfterBuiltins) {
  MetricsRegistry registry;
  const MetricId retries = registry.AddCounter("custom.retries");
  const MetricId depth = registry.AddHistogram("custom.depth", {1.0, 2.0});
  EXPECT_EQ(retries, metric::kBuiltinCount);
  EXPECT_EQ(depth, metric::kBuiltinCount + 1);
  registry.EnsureShards(1);
  registry.Shard(0).Count(retries, 3);
  registry.Shard(0).Observe(depth, 1.5);
  const std::vector<AggregatedMetric> agg = registry.Aggregate();
  ASSERT_EQ(agg.size(), metric::kBuiltinCount + 2);
  EXPECT_EQ(agg[retries].name, "custom.retries");
  EXPECT_EQ(agg[retries].count, 3);
  EXPECT_EQ(agg[depth].buckets, (std::vector<std::int64_t>{0, 1, 0}));
}

TEST(MetricsRegistry, HistogramBoundsMustStrictlyIncrease) {
  MetricsRegistry registry;
  EXPECT_THROW(registry.AddHistogram("bad", {1.0, 1.0}), util::Error);
  EXPECT_THROW(registry.AddHistogram("bad", {2.0, 1.0}), util::Error);
}

TEST(MetricsRegistry, ResetZeroesEveryShard) {
  MetricsRegistry registry;
  registry.EnsureShards(2);
  registry.Shard(0).Count(metric::kCellsEvaluated, 5);
  registry.Shard(1).SetGauge(metric::kThreads, 8.0);
  registry.Shard(1).Observe(metric::kCellWallUs, 42.0);
  registry.Reset();
  const std::vector<AggregatedMetric> agg = registry.Aggregate();
  EXPECT_EQ(agg[metric::kCellsEvaluated].count, 0);
  EXPECT_DOUBLE_EQ(agg[metric::kThreads].value, 0.0);
  EXPECT_EQ(agg[metric::kCellWallUs].count, 0);
  for (std::int64_t bucket : agg[metric::kCellWallUs].buckets) {
    EXPECT_EQ(bucket, 0);
  }
}

/// The RunGrid threading model in miniature: N real threads, each scoping
/// its own shard and hammering counters/histograms concurrently.  Shards
/// share no mutable state, so this is TSan-clean by construction — run the
/// suite under -fsanitize=thread to enforce it.
TEST(MetricsRegistry, ConcurrentPerShardWritesAggregateExactly) {
  constexpr int kThreads = 4;
  constexpr int kIterations = 10000;
  MetricsRegistry registry;
  registry.EnsureShards(kThreads);
  InstallMetrics(&registry);

  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&registry, t] {
      const ScopedMetricsShard scope(&registry.Shard(static_cast<std::size_t>(t)));
      for (int i = 0; i < kIterations; ++i) {
        // Through the free helpers, exactly like instrumented call sites.
        Count(metric::kSolverInner, 2);
        Observe(metric::kSolveWallUs, static_cast<double>(i % 7) * 500.0);
      }
      SetGauge(metric::kThreads, static_cast<double>(t + 1));
    });
  }
  for (std::thread& worker : workers) {
    worker.join();
  }
  InstallMetrics(nullptr);

  const std::vector<AggregatedMetric> agg = registry.Aggregate();
  EXPECT_EQ(agg[metric::kSolverInner].count,
            static_cast<std::int64_t>(kThreads) * kIterations * 2);
  EXPECT_EQ(agg[metric::kSolveWallUs].count,
            static_cast<std::int64_t>(kThreads) * kIterations);
  EXPECT_DOUBLE_EQ(agg[metric::kThreads].value, kThreads);
}

TEST(MetricsFreeHelpers, NoOpWithoutAScopedShard) {
  // No shard scoped on this thread: the helpers must be safe no-ops (the
  // telemetry-off fast path every instrumented call site rides).
  ASSERT_EQ(ActiveShard(), nullptr);
  Count(metric::kCellsEvaluated);
  SetGauge(metric::kThreads, 3.0);
  Observe(metric::kCellWallUs, 1.0);
  { ScopedWallTimer timer(metric::kSolveWallUs); }

  MetricsRegistry registry;
  registry.EnsureShards(1);
  {
    const ScopedMetricsShard scope(&registry.Shard(0));
    EXPECT_EQ(ActiveShard(), &registry.Shard(0));
    { ScopedWallTimer timer(metric::kSolveWallUs); }
  }
  EXPECT_EQ(ActiveShard(), nullptr);
  // The timer observed exactly one (non-negative) duration while scoped.
  const AggregatedMetric hist = registry.Aggregate()[metric::kSolveWallUs];
  EXPECT_EQ(hist.count, 1);
  EXPECT_GE(hist.min, 0.0);
}

TEST(MetricsRegistry, ScopedShardsNest) {
  MetricsRegistry registry;
  registry.EnsureShards(2);
  const ScopedMetricsShard outer(&registry.Shard(0));
  {
    const ScopedMetricsShard inner(&registry.Shard(1));
    Count(metric::kCellsEvaluated);
  }
  Count(metric::kCellsFailed);
  const std::vector<AggregatedMetric> agg = registry.Aggregate();
  EXPECT_EQ(agg[metric::kCellsEvaluated].count, 1);
  EXPECT_EQ(agg[metric::kCellsFailed].count, 1);
}

}  // namespace
}  // namespace dvs::obs
