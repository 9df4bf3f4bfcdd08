// Shared types of the perfbench driver: the command-line configuration, the
// per-run report every workload fills, and the measurement helpers (clock,
// span folding, reference loop, peak RSS).
#ifndef ACS_PERFBENCH_BENCH_H
#define ACS_PERFBENCH_BENCH_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

inline double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;        // tiny inputs for the self-tests
  std::string tmp_dir;       // scratch root for solve stores (grid-warm)
};

/// What one workload run measured.  The driver serialises it as JSON; the
/// Python front end turns it into the contract's metrics.
struct Report {
  int threads = 1;
  std::vector<double> setup_s;  // one entry per set-up repeat
  /// Latency of each distinct input: its fastest timed visit.
  std::vector<double> op_ms;
  std::size_t passes = 0;       // complete passes over the inputs
  std::int64_t attempted = 0;   // timed visits
  std::int64_t failed = 0;
  std::vector<std::string> failures;  // first few failure messages
  double work = 0.0;            // work units in one pass over the inputs
  std::string work_unit;
  /// Deterministic outputs: energy norms and solver work counts.  Must
  /// repeat bit-for-bit across runs at one seed and SIMD level.
  std::map<std::string, double> norms;
  std::map<std::string, double> digest;
  /// Per-layer metrics (traced runs only).
  std::map<std::string, double> layers;

  void Fail(const std::string& message) {
    ++failed;
    if (failures.size() < 8) {
      failures.push_back(message);
    }
  }
};

/// One span name folded over a trace: inclusive and self (exclusive of
/// child spans) time, event count, and the summed numeric "hyper_periods"
/// argument of simulate spans.
struct SpanTotals {
  double total_us = 0.0;
  double self_us = 0.0;
  std::int64_t count = 0;
  double hyper_periods = 0.0;
  /// Counts and inclusive time of spans whose "cache" argument was "miss"
  /// (solve spans that really solved).
  std::int64_t misses = 0;
  double miss_total_us = 0.0;
};

/// Folds recorded spans into per-name totals.  Spans nest by time on each
/// thread, so a span's self time is its duration minus the time its
/// direct children cover.
std::map<std::string, SpanTotals> FoldSpans(
    const std::vector<dvs::obs::TraceEvent>& events);

void Accumulate(std::map<std::string, SpanTotals>& into,
                const std::map<std::string, SpanTotals>& from);

/// A fixed floating-point loop; its wall time tells a slow host from a slow
/// change.
double ReferenceLoopMs();

/// Peak resident set size of this process in MiB.
double PeakRssMb();

/// Runs one workload; throws on a configuration error.
void RunSimOnline(const Config& config, Report& report);
void RunGridWarm(const Config& config, Report& report);

}  // namespace perfbench

#endif  // ACS_PERFBENCH_BENCH_H
