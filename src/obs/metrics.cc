#include "obs/metrics.h"

#include <algorithm>

#include "util/error.h"

namespace dvs::obs {
namespace {

/// The calling thread's active shard (set by ScopedMetricsShard).
thread_local MetricsShard* t_shard = nullptr;

/// The installed registry.  Plain pointer with the Logger contract: set it
/// before spawning workers, clear it after joining them.
MetricsRegistry* g_metrics = nullptr;

/// Fixed wall-time bucket bounds (µs): cells span ~100µs (cache-served)
/// to seconds (cold planning chains), solves ~1ms to ~1s.
std::vector<double> WallBoundsUs() {
  return {100.0, 1e3, 1e4, 1e5, 1e6, 1e7};
}

}  // namespace

MetricsRegistry::MetricsRegistry() {
  // Builtins in obs::metric id order — append-only; obs_metrics_test pins
  // the id -> name mapping so persisted manifests stay comparable.
  AddCounter("grid.cells_evaluated");
  AddCounter("grid.cells_failed");
  AddCounter("grid.cells_skipped");
  AddCounter("solve.wcs_solves");
  AddCounter("solve.acs_solves");
  AddCounter("solve.planned_solves");
  AddCounter("solve.cache_hits");
  AddCounter("prepare.cache_hits");
  AddCounter("prepare.cache_misses");
  AddCounter("calibrate.runs");
  AddCounter("calibrate.cache_hits");
  AddCounter("solver.outer_iterations");
  AddCounter("solver.inner_iterations");
  AddCounter("solver.evaluations");
  AddCounter("sim.deadline_misses");
  AddCounter("solve.fallbacks");
  AddGauge("run.threads");
  AddGauge("run.shard_count");
  AddHistogram("cell.wall_us", WallBoundsUs());
  AddHistogram("solve.wall_us", WallBoundsUs());
  AddCounter("prepare.evictions");
  AddGauge("prepare.resident_bytes");
  AddCounter("persist.cache_hits");
  AddCounter("persist.cache_misses");
  AddCounter("persist.verify_rejects");
  AddCounter("persist.write_backs");
  AddCounter("family.steals");
  AddGauge("family.count");
  // Per-worker family load: one observation per worker per grid run, so
  // bucket bounds are cell counts, not wall times.
  AddHistogram("family.cells_per_worker",
               {1.0, 10.0, 100.0, 1e3, 1e4, 1e5, 1e6});
  AddCounter("drift.replans");
  AddCounter("online.dp_dispatches");
  AddCounter("prepare.oversized_rejects");
  AddCounter("dpm.sleeps");
  AddCounter("dpm.migrations");
  // Fleet sleep energy per cell-method, in per-ms fleet-power units —
  // typically a small fraction of the idle floor.
  AddHistogram("dpm.sleep_energy", {1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0});
  AddCounter("sim.sampler_draws");
  AddCounter("sim.replayed_draws");
  // Relative duality gaps: certified solves end at or below 1e-6.
  AddHistogram("solve.wcs_gap",
               {1e-14, 1e-12, 1e-11, 1e-10, 1e-9, 1e-8, 1e-7, 1e-6});
  AddCounter("solve.wcs_fallbacks");
  AddHistogram("solve.wcs_newton_steps", {10, 20, 40, 80, 160, 320, 640});
  AddCounter("solve.wcs_fallbacks.breakdown");
  AddCounter("solve.wcs_fallbacks.repair");
  AddCounter("solver.inner_capped");
  // Absolute violations; the ALM's feasibility tolerance is 1e-8.
  AddHistogram("solver.final_violation",
               {1e-12, 1e-10, 1e-9, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3});
  // End-time shifts in ms; the engine resolves events to 1e-9 ms.
  AddHistogram("repair.max_shift",
               {1e-12, 1e-9, 1e-6, 1e-4, 1e-2, 1.0, 100.0});
  AddCounter("solve.acs_fallbacks");
  AddCounter("solve.acs_fallbacks.breakdown");
  AddCounter("solve.acs_fallbacks.no_convergence");
  AddCounter("solve.acs_fallbacks.repair");
  AddCounter("solve.acs_fallbacks.worse");
  // Relative KKT residuals: converged solves end at or below 1e-9.
  AddHistogram("solve.acs_kkt", {1e-12, 1e-11, 1e-10, 1e-9, 1e-8, 1e-6});
  // Newton systems and patterns per converged solve.
  AddHistogram("solve.acs_newton_steps", {10, 20, 40, 80, 160, 320, 640});
  AddHistogram("solve.acs_patterns", {1, 2, 3, 4, 6, 8, 12});
  AddCounter("fleet.mission_hits");
  AddCounter("fleet.mission_misses");
  ACS_REQUIRE(definitions_.size() == metric::kBuiltinCount,
              "builtin metric count drifted from obs::metric ids");
}

MetricId MetricsRegistry::Add(std::string name, MetricKind kind,
                              std::vector<double> bounds) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (std::size_t i = 1; i < bounds.size(); ++i) {
    ACS_REQUIRE(bounds[i - 1] < bounds[i],
                "histogram bounds must be strictly increasing: " + name);
  }
  definitions_.push_back(Definition{std::move(name), kind, std::move(bounds)});
  return static_cast<MetricId>(definitions_.size() - 1);
}

MetricId MetricsRegistry::AddCounter(std::string name) {
  return Add(std::move(name), MetricKind::kCounter, {});
}

MetricId MetricsRegistry::AddGauge(std::string name) {
  return Add(std::move(name), MetricKind::kGauge, {});
}

MetricId MetricsRegistry::AddHistogram(std::string name,
                                       std::vector<double> bounds) {
  return Add(std::move(name), MetricKind::kHistogram, std::move(bounds));
}

std::size_t MetricsRegistry::MetricCount() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return definitions_.size();
}

const std::string& MetricsRegistry::MetricName(MetricId id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  ACS_REQUIRE(id < definitions_.size(), "metric id out of range");
  return definitions_[id].name;
}

void MetricsRegistry::EnsureShards(std::size_t count) {
  std::lock_guard<std::mutex> lock(mutex_);
  while (shards_.size() < count) {
    auto shard = std::make_unique<MetricsShard>();
    shard->registry_ = this;
    shards_.push_back(std::move(shard));
  }
}

void MetricsShard::EnsureCapacity(MetricId id) {
  // Owner-thread-only growth; definitions are read under the registry
  // mutex because another thread may be registering a metric concurrently.
  std::lock_guard<std::mutex> lock(registry_->mutex_);
  const std::size_t count = registry_->definitions_.size();
  ACS_REQUIRE(id < count, "metric id out of range");
  counters_.resize(count, 0);
  gauges_.resize(count, 0.0);
  gauge_set_.resize(count, false);
  histograms_.resize(count);
  for (std::size_t i = 0; i < count; ++i) {
    const MetricsRegistry::Definition& def = registry_->definitions_[i];
    if (def.kind == MetricKind::kHistogram && histograms_[i].buckets.empty()) {
      histograms_[i].bounds = def.bounds;
      histograms_[i].buckets.assign(def.bounds.size() + 1, 0);
    }
  }
}

void MetricsShard::Count(MetricId id, std::int64_t delta) {
  if (id >= counters_.size()) {
    EnsureCapacity(id);
  }
  counters_[id] += delta;
}

void MetricsShard::SetGauge(MetricId id, double value) {
  if (id >= gauges_.size()) {
    EnsureCapacity(id);
  }
  gauges_[id] = value;
  gauge_set_[id] = true;
}

void MetricsShard::Observe(MetricId id, double value) {
  if (id >= histograms_.size()) {
    EnsureCapacity(id);
  }
  HistogramData& hist = histograms_[id];
  if (hist.buckets.empty()) {
    // Registered after this shard's last capacity growth; re-sync shapes.
    EnsureCapacity(id);
  }
  // First bucket with value <= bound; otherwise the overflow bucket.
  std::size_t bucket = hist.buckets.size() - 1;
  for (std::size_t i = 0; i < hist.bounds.size(); ++i) {
    if (value <= hist.bounds[i]) {
      bucket = i;
      break;
    }
  }
  ++hist.buckets[bucket];
  hist.sum += value;
  hist.min = hist.count == 0 ? value : std::min(hist.min, value);
  hist.max = hist.count == 0 ? value : std::max(hist.max, value);
  ++hist.count;
}

std::vector<AggregatedMetric> MetricsRegistry::Aggregate() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<AggregatedMetric> out;
  out.reserve(definitions_.size());
  for (std::size_t id = 0; id < definitions_.size(); ++id) {
    const Definition& def = definitions_[id];
    AggregatedMetric agg;
    agg.name = def.name;
    agg.kind = def.kind;
    agg.bounds = def.bounds;
    if (def.kind == MetricKind::kHistogram) {
      agg.buckets.assign(def.bounds.size() + 1, 0);
    }
    bool gauge_seen = false;
    for (const std::unique_ptr<MetricsShard>& shard : shards_) {
      switch (def.kind) {
        case MetricKind::kCounter:
          if (id < shard->counters_.size()) {
            agg.count += shard->counters_[id];
          }
          break;
        case MetricKind::kGauge:
          if (id < shard->gauge_set_.size() && shard->gauge_set_[id]) {
            agg.value = gauge_seen ? std::max(agg.value, shard->gauges_[id])
                                   : shard->gauges_[id];
            gauge_seen = true;
          }
          break;
        case MetricKind::kHistogram:
          if (id < shard->histograms_.size() &&
              shard->histograms_[id].count > 0) {
            const MetricsShard::HistogramData& hist = shard->histograms_[id];
            for (std::size_t b = 0; b < hist.buckets.size(); ++b) {
              agg.buckets[b] += hist.buckets[b];
            }
            agg.value += hist.sum;
            agg.min = agg.count == 0 ? hist.min : std::min(agg.min, hist.min);
            agg.max = agg.count == 0 ? hist.max : std::max(agg.max, hist.max);
            agg.count += hist.count;
          }
          break;
      }
    }
    out.push_back(std::move(agg));
  }
  return out;
}

void MetricsRegistry::Reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const std::unique_ptr<MetricsShard>& shard : shards_) {
    std::fill(shard->counters_.begin(), shard->counters_.end(), 0);
    std::fill(shard->gauges_.begin(), shard->gauges_.end(), 0.0);
    shard->gauge_set_.assign(shard->gauge_set_.size(), false);
    for (MetricsShard::HistogramData& hist : shard->histograms_) {
      std::fill(hist.buckets.begin(), hist.buckets.end(), 0);
      hist.count = 0;
      hist.sum = hist.min = hist.max = 0.0;
    }
  }
}

MetricsRegistry* ActiveMetrics() { return g_metrics; }

void InstallMetrics(MetricsRegistry* registry) { g_metrics = registry; }

MetricsShard* ActiveShard() { return t_shard; }

ScopedMetricsShard::ScopedMetricsShard(MetricsShard* shard)
    : previous_(t_shard) {
  t_shard = shard;
}

ScopedMetricsShard::~ScopedMetricsShard() { t_shard = previous_; }

void Count(MetricId id, std::int64_t delta) {
  if (MetricsShard* shard = t_shard) {
    shard->Count(id, delta);
  }
}

void SetGauge(MetricId id, double value) {
  if (MetricsShard* shard = t_shard) {
    shard->SetGauge(id, value);
  }
}

void Observe(MetricId id, double value) {
  if (MetricsShard* shard = t_shard) {
    shard->Observe(id, value);
  }
}

ScopedWallTimer::ScopedWallTimer(MetricId id) : id_(id), shard_(t_shard) {
  if (shard_ != nullptr) {
    begin_ = std::chrono::steady_clock::now();
  }
}

ScopedWallTimer::~ScopedWallTimer() {
  if (shard_ != nullptr) {
    const std::chrono::duration<double, std::micro> elapsed =
        std::chrono::steady_clock::now() - begin_;
    shard_->Observe(id_, elapsed.count());
  }
}

}  // namespace dvs::obs
