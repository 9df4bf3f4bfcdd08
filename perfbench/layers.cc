// Measurement helpers: span folding, the host reference loop, peak RSS.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "bench.h"

namespace perfbench {

std::map<std::string, SpanTotals> FoldSpans(
    const std::vector<dvs::obs::TraceEvent>& events) {
  std::map<std::uint32_t, std::vector<const dvs::obs::TraceEvent*>> by_thread;
  for (const dvs::obs::TraceEvent& event : events) {
    by_thread[event.tid].push_back(&event);
  }
  std::map<std::string, SpanTotals> totals;
  for (auto& [tid, list] : by_thread) {
    // Parents start no later than their children and, on a tie, last longer.
    std::sort(list.begin(), list.end(),
              [](const dvs::obs::TraceEvent* a, const dvs::obs::TraceEvent* b) {
                if (a->ts_us != b->ts_us) {
                  return a->ts_us < b->ts_us;
                }
                return a->dur_us > b->dur_us;
              });
    struct Open {
      const dvs::obs::TraceEvent* event;
      double child_us;
    };
    std::vector<Open> stack;
    const auto close = [&](const Open& open) {
      SpanTotals& t = totals[open.event->name];
      t.total_us += open.event->dur_us;
      t.self_us += std::max(0.0, open.event->dur_us - open.child_us);
      ++t.count;
      for (const auto& [key, value] : open.event->args) {
        if (key == "hyper_periods") {
          t.hyper_periods += std::strtod(value.c_str(), nullptr);
        } else if (key == "cache" && value == "miss") {
          ++t.misses;
          t.miss_total_us += open.event->dur_us;
        }
      }
    };
    for (const dvs::obs::TraceEvent* event : list) {
      while (!stack.empty() &&
             stack.back().event->ts_us + stack.back().event->dur_us <=
                 event->ts_us) {
        close(stack.back());
        stack.pop_back();
      }
      if (!stack.empty()) {
        stack.back().child_us += event->dur_us;
      }
      stack.push_back({event, 0.0});
    }
    while (!stack.empty()) {
      close(stack.back());
      stack.pop_back();
    }
  }
  return totals;
}

void Accumulate(std::map<std::string, SpanTotals>& into,
                const std::map<std::string, SpanTotals>& from) {
  for (const auto& [name, t] : from) {
    SpanTotals& out = into[name];
    out.total_us += t.total_us;
    out.self_us += t.self_us;
    out.count += t.count;
    out.hyper_periods += t.hyper_periods;
    out.misses += t.misses;
    out.miss_total_us += t.miss_total_us;
  }
}

double ReferenceLoopMs() {
  const Clock::time_point start = Clock::now();
  volatile double sink = 0.0;
  double x = 0.5;
  double acc = 0.0;
  for (int i = 0; i < 4000000; ++i) {
    x = x * 1.0000001 + 1e-9;
    acc += std::sqrt(x) * 0.5;
  }
  sink = acc;
  (void)sink;
  return MsSince(start);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace perfbench
