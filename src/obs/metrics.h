// Lock-free per-thread metrics for grid runs.
//
// A MetricsRegistry names a fixed-plus-extensible set of counters, gauges
// and histograms and owns one MetricsShard per worker thread, mirroring the
// EvalWorkspace ownership model of runner::RunGrid: every shard is written
// by exactly one worker through a thread-local pointer (ScopedMetricsShard),
// so the hot path is a plain non-atomic add — no locks, no contended cache
// lines — and TSan-clean by construction.  Aggregate() folds the shards in
// index order after the grid joins its workers, so the merged totals are
// deterministic for any thread count.
//
// Determinism caveat the tests pin down: counters charged from *results*
// (cells evaluated, solver iterations replayed from MethodOutcome, deadline
// misses) are identical at any thread count because the results themselves
// are; counters observing *work scheduling* (which worker's cache served a
// solve, prepare hits vs misses) legitimately vary with the thread count —
// only invariants like hits + misses stay fixed.  The telemetry layer is
// observation-only either way: no metric feeds back into any computation.
//
// Installation is process-global (like util::Logger): a bench or tool
// installs its registry with InstallMetrics, RunGrid sizes the shards to
// its pool and scopes one per worker, and the free Count/SetGauge/Observe
// helpers no-op on a single thread-local branch when nothing is installed
// (the near-zero off path the golden-bytes tests rely on).
#ifndef ACS_OBS_METRICS_H
#define ACS_OBS_METRICS_H

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace dvs::obs {

/// Index into a registry's metric definitions.  Builtin ids (obs::metric)
/// are stable compile-time constants; AddCounter/AddGauge/AddHistogram
/// append after them.
using MetricId = std::uint32_t;

enum class MetricKind { kCounter, kGauge, kHistogram };

class MetricsRegistry;

/// One worker's private slice of every metric.  All mutation goes through
/// the owning thread; the registry reads shards only after the workers have
/// joined (Aggregate) or before they start (Reset).
class MetricsShard {
 public:
  void Count(MetricId id, std::int64_t delta = 1);
  void SetGauge(MetricId id, double value);
  /// Histogram observation; also feeds count/sum/min/max.
  void Observe(MetricId id, double value);

 private:
  friend class MetricsRegistry;

  struct HistogramData {
    std::vector<double> bounds;         // copied from the definition so the
                                        // hot path never locks the registry
    std::vector<std::int64_t> buckets;  // bounds.size() + 1 (overflow last)
    std::int64_t count = 0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;
  };

  /// Grows the per-metric slots to the registry's current definition count
  /// (owner-thread only; reads definitions under the registry mutex).
  void EnsureCapacity(MetricId id);

  MetricsRegistry* registry_ = nullptr;
  std::vector<std::int64_t> counters_;   // slot per metric id (0 for others)
  std::vector<double> gauges_;
  std::vector<bool> gauge_set_;
  std::vector<HistogramData> histograms_;
};

/// One metric folded across every shard.
struct AggregatedMetric {
  std::string name;
  MetricKind kind = MetricKind::kCounter;
  std::int64_t count = 0;   // counter total / histogram observation count
  double value = 0.0;       // gauge: max over set shards; histogram: sum
  double min = 0.0;         // histogram only
  double max = 0.0;         // histogram only
  std::vector<double> bounds;          // histogram bucket upper bounds
  std::vector<std::int64_t> buckets;   // bounds.size() + 1 (overflow last)
};

class MetricsRegistry {
 public:
  /// Registers the builtin metric set (obs::metric ids, in id order).
  MetricsRegistry();
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  MetricId AddCounter(std::string name);
  MetricId AddGauge(std::string name);
  /// `bounds` are strictly increasing bucket upper bounds: a value v lands
  /// in the first bucket with v <= bounds[i], or the overflow bucket.
  MetricId AddHistogram(std::string name, std::vector<double> bounds);

  std::size_t MetricCount() const;
  const std::string& MetricName(MetricId id) const;

  /// Grows the shard set to at least `count` (call before the workers
  /// start; existing shards keep their tallies).
  void EnsureShards(std::size_t count);
  MetricsShard& Shard(std::size_t index) { return *shards_[index]; }

  /// Deterministic fold: shards in index order, metrics in id order.
  /// Counters and histogram buckets sum; gauges take the max over shards
  /// that set them.  Call only after the writing threads have joined.
  std::vector<AggregatedMetric> Aggregate() const;

  /// Zeroes every shard (between repeats; writers must be quiescent).
  void Reset();

 private:
  friend class MetricsShard;

  struct Definition {
    std::string name;
    MetricKind kind;
    std::vector<double> bounds;  // histogram only
  };

  MetricId Add(std::string name, MetricKind kind, std::vector<double> bounds);

  // Definitions are append-only behind the mutex (registration may race a
  // shard growing its slots); shards are unique_ptrs so growing the vector
  // never moves a shard under its owning thread.
  std::vector<Definition> definitions_;
  std::vector<std::unique_ptr<MetricsShard>> shards_;
  mutable std::mutex mutex_;
};

/// Builtin metric ids, registered by the MetricsRegistry constructor in
/// exactly this order (obs_metrics_test pins the names).  The solver.*
/// counters are charged per cell from MethodOutcome — deterministic at any
/// thread count; the *.cache_* counters observe scheduling.
namespace metric {
inline constexpr MetricId kCellsEvaluated = 0;   // grid.cells_evaluated
inline constexpr MetricId kCellsFailed = 1;      // grid.cells_failed
inline constexpr MetricId kCellsSkipped = 2;     // grid.cells_skipped
inline constexpr MetricId kWcsSolves = 3;        // solve.wcs_solves
inline constexpr MetricId kAcsSolves = 4;        // solve.acs_solves
inline constexpr MetricId kPlannedSolves = 5;    // solve.planned_solves
inline constexpr MetricId kSolveCacheHits = 6;   // solve.cache_hits
inline constexpr MetricId kPrepareHits = 7;      // prepare.cache_hits
inline constexpr MetricId kPrepareMisses = 8;    // prepare.cache_misses
inline constexpr MetricId kCalibrations = 9;     // calibrate.runs
inline constexpr MetricId kCalibrationHits = 10;  // calibrate.cache_hits
inline constexpr MetricId kSolverOuter = 11;     // solver.outer_iterations
inline constexpr MetricId kSolverInner = 12;     // solver.inner_iterations
inline constexpr MetricId kSolverEvals = 13;     // solver.evaluations
inline constexpr MetricId kDeadlineMisses = 14;  // sim.deadline_misses
inline constexpr MetricId kFallbacks = 15;       // solve.fallbacks
inline constexpr MetricId kThreads = 16;         // run.threads (gauge)
inline constexpr MetricId kShardCount = 17;      // run.shard_count (gauge)
inline constexpr MetricId kCellWallUs = 18;      // cell.wall_us (histogram)
inline constexpr MetricId kSolveWallUs = 19;     // solve.wall_us (histogram)
inline constexpr MetricId kPrepareEvictions = 20;   // prepare.evictions
inline constexpr MetricId kPreparedBytes = 21;      // prepare.resident_bytes
                                                    // (gauge)
inline constexpr MetricId kPersistHits = 22;        // persist.cache_hits
inline constexpr MetricId kPersistMisses = 23;      // persist.cache_misses
inline constexpr MetricId kPersistRejects = 24;     // persist.verify_rejects
inline constexpr MetricId kPersistWriteBacks = 25;  // persist.write_backs
inline constexpr MetricId kFamilySteals = 26;       // family.steals
inline constexpr MetricId kFamilyCount = 27;        // family.count (gauge)
inline constexpr MetricId kFamilyCellsPerWorker = 28;  // family.cells_per_
                                                       // worker (histogram)
inline constexpr MetricId kDriftReplans = 29;       // drift.replans
inline constexpr MetricId kOnlineDpDispatches = 30;  // online.dp_dispatches
inline constexpr MetricId kPrepareOversized = 31;   // prepare.oversized_
                                                    // rejects
inline constexpr MetricId kDpmSleeps = 32;          // dpm.sleeps
inline constexpr MetricId kDpmMigrations = 33;      // dpm.migrations
inline constexpr MetricId kDpmSleepEnergy = 34;     // dpm.sleep_energy
                                                    // (histogram)
// Workload draws of core::EvaluateMethods: made on a real sampler vs
// replayed from a shared realisation (both result-charged).
inline constexpr MetricId kSamplerDraws = 35;       // sim.sampler_draws
inline constexpr MetricId kReplayedDraws = 36;      // sim.replayed_draws
// Exact WCS solves (core::SolveWcs): the certified relative duality gap of
// each, and the solves that fell back to the ALM, in total and by reason.
// Charged at solve time, like solve.wcs_solves.
inline constexpr MetricId kWcsGap = 37;             // solve.wcs_gap
                                                    // (histogram)
inline constexpr MetricId kWcsFallbacks = 38;       // solve.wcs_fallbacks
inline constexpr MetricId kWcsFallbackNoInterior = 39;  // solve.wcs_fallbacks.
                                                        // no_interior
inline constexpr MetricId kWcsFallbackBreakdown = 40;   // ....breakdown
inline constexpr MetricId kWcsFallbackGap = 41;         // ....gap
inline constexpr MetricId kWcsFallbackRepair = 42;      // ....repair
// Solves whose last ALM inner solve hit its iteration cap (result-charged
// from MethodOutcome, like the other solver.* counters).
inline constexpr MetricId kSolverInnerCapped = 43;  // solver.inner_capped
inline constexpr std::size_t kBuiltinCount = 44;
}  // namespace metric

/// The installed registry, or nullptr.  Installation is not synchronised
/// with concurrent readers — install before spawning workers, uninstall
/// after joining them (the Logger contract).
MetricsRegistry* ActiveMetrics();
void InstallMetrics(MetricsRegistry* registry);

/// The calling thread's active shard, or nullptr (the off fast path).
MetricsShard* ActiveShard();

/// Scopes the calling thread's shard pointer (RAII, nestable).  RunGrid
/// workers install their worker-indexed shard around each cell.
class ScopedMetricsShard {
 public:
  explicit ScopedMetricsShard(MetricsShard* shard);
  ~ScopedMetricsShard();
  ScopedMetricsShard(const ScopedMetricsShard&) = delete;
  ScopedMetricsShard& operator=(const ScopedMetricsShard&) = delete;

 private:
  MetricsShard* previous_;
};

/// Free helpers: single thread-local load + branch when telemetry is off.
void Count(MetricId id, std::int64_t delta = 1);
void SetGauge(MetricId id, double value);
void Observe(MetricId id, double value);

/// Observes the scope's wall time (µs) into histogram `id` on destruction.
/// When the calling thread has no shard the constructor skips even the
/// clock read — zero cost on the off path.
class ScopedWallTimer {
 public:
  explicit ScopedWallTimer(MetricId id);
  ~ScopedWallTimer();
  ScopedWallTimer(const ScopedWallTimer&) = delete;
  ScopedWallTimer& operator=(const ScopedWallTimer&) = delete;

 private:
  MetricId id_;
  MetricsShard* shard_;
  std::chrono::steady_clock::time_point begin_;
};

}  // namespace dvs::obs

#endif  // ACS_OBS_METRICS_H
