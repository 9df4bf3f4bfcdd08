// Hierarchical phase-span tracing with Chrome trace_event export.
//
// A TraceRecorder collects RAII Span timings into per-thread buffers:
// each thread registers its buffer once (mutex held only for that
// registration) and appends events lock-free afterwards, so tracing a
// multi-thread grid run costs two steady_clock reads plus a vector push
// per span.  When no recorder is installed a Span constructor is a single
// relaxed atomic load — the near-zero off path the golden-bytes tests and
// the release-perf-gate overhead assertion pin down.
//
// Span nesting follows the call stack (grid -> cell -> solve -> alm /
// calibrate / warm-link / simulate), which the Chrome trace_event "X"
// complete-event format reconstructs from timestamps alone: the export
// (WriteChromeTrace) loads directly into chrome://tracing or Perfetto as a
// per-thread flamegraph.  Spans carry string key/value args (cache hit or
// miss, cell coordinates) rendered into the event's
// "args" object.
//
// MergeChromeTraces recombines per-shard trace files (tools/merge_results)
// into one document, assigning each shard its own pid so a sharded run
// views as one process group per shard.
#ifndef ACS_OBS_TRACE_H
#define ACS_OBS_TRACE_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace dvs::obs {

/// One completed span ("X" complete event in the Chrome trace format).
struct TraceEvent {
  const char* name = "";      // static-storage span name
  const char* category = "";  // static-storage category
  double ts_us = 0.0;         // start, µs since the recorder epoch
  double dur_us = 0.0;
  std::uint32_t tid = 0;      // registration-order thread index
  std::vector<std::pair<std::string, std::string>> args;
};

class TraceRecorder {
 public:
  TraceRecorder();
  ~TraceRecorder();
  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  /// The installed recorder, or nullptr.  A relaxed atomic so the Span
  /// off path never fences; install before spawning workers.
  static TraceRecorder* Active();
  static void Install(TraceRecorder* recorder);

  /// Microseconds since this recorder's construction.
  double NowUs() const;

  /// Appends to the calling thread's buffer (registers it on first use).
  void Append(TraceEvent event);

  /// Every recorded event, thread buffers concatenated in registration
  /// order.  Call after the writing threads have joined.
  std::vector<TraceEvent> Events() const;

  std::size_t event_count() const;

  /// Chrome trace_event JSON: {"traceEvents": [...]} with one "X" event
  /// per span (ts/dur in µs, `pid`, registration-order tid) plus
  /// thread_name metadata.  Loads in chrome://tracing and Perfetto.
  std::string RenderChromeTrace(std::uint32_t pid = 0) const;
  void WriteChromeTrace(const std::string& path, std::uint32_t pid = 0) const;

 private:
  struct ThreadLog {
    std::uint32_t tid = 0;
    std::vector<TraceEvent> events;
  };

  ThreadLog& LogForThisThread();

  const std::uint64_t generation_;  // distinguishes recorder reincarnations
  const std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mutex_;        // guards registration + reads
  std::vector<ThreadLog*> logs_;    // owned; stable addresses for writers
};

/// RAII phase timer.  Near-zero when no recorder is installed: the
/// constructor is one relaxed load, the destructor one branch.
class Span {
 public:
  explicit Span(const char* name, const char* category = "run");
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  bool enabled() const { return recorder_ != nullptr; }

  /// String/integer/float annotations (no-ops when disabled).
  void Arg(const char* key, std::string value);
  void Arg(const char* key, std::int64_t value);
  void Arg(const char* key, double value);

 private:
  TraceRecorder* recorder_;
  TraceEvent event_;
};

/// Merges per-shard Chrome trace documents (the JSON texts) into one:
/// events concatenate with each input's events re-homed to pid = its index
/// in `shard_pids` (typically the shard index).  Throws util::Error when a
/// document does not parse or has no traceEvents array.
std::string MergeChromeTraces(const std::vector<std::string>& traces,
                              const std::vector<std::uint32_t>& shard_pids);

/// Thread-local grid-run labels the convergence recorder and spans read:
/// RunGrid's workers scope the current cell around each evaluation so
/// deeper layers (core solves) can attribute records without threading
/// context through every call signature.
struct RunContext {
  std::int64_t cell = -1;
  std::int64_t set = -1;
  const char* scenario = nullptr;  // registry name; outlives the run
  double sigma = 0.0;
};

RunContext& CurrentRunContext();

/// RAII setter (restores the previous context on destruction).
class ScopedRunContext {
 public:
  explicit ScopedRunContext(const RunContext& context);
  ~ScopedRunContext();
  ScopedRunContext(const ScopedRunContext&) = delete;
  ScopedRunContext& operator=(const ScopedRunContext&) = delete;

 private:
  RunContext previous_;
};

}  // namespace dvs::obs

#endif  // ACS_OBS_TRACE_H
