// Trace replay: evaluate every schedule method under a recorded sequence of
// per-job workload fractions instead of a stochastic model.
//
// The trace CSV holds one normalised fraction per row (0 = BCEC, 1 = WCEC;
// extra columns and '#' comments are ignored — see workload/scenario.h).
// Normalisation is what lets one recording replay against any task set:
// job j of task i executes BCEC_i + f_j * (WCEC_i - BCEC_i) cycles.  A
// sample recording ships in examples/sample_trace.csv.
//
//   $ ./example_trace_replay [--trace path/to/trace.csv] [--tasks N]
//
// Without --trace the example writes sample_trace.csv's contents to a
// temporary file first, so it runs from any directory.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>

#include "core/api.h"
#include "util/cli.h"
#include "util/error.h"
#include "util/strings.h"
#include "workload/presets.h"
#include "workload/random_taskset.h"
#include "workload/scenario.h"

namespace {

/// Mirrors examples/sample_trace.csv: a bursty 12-job recording — three
/// near-best warmup jobs, a heavy phase, then a mixed tail.
const char kSampleTrace[] =
    "# sample per-job workload fractions (0 = BCEC, 1 = WCEC)\n"
    "fraction,comment\n"
    "0.10,warmup\n0.12,warmup\n0.15,warmup\n"
    "0.92,heavy\n0.88,heavy\n0.95,heavy\n0.90,heavy\n"
    "0.35,mixed\n0.60,mixed\n0.20,mixed\n0.75,mixed\n0.45,mixed\n";

}  // namespace

int main(int argc, char** argv) {
  using namespace dvs;

  std::string trace_path;
  std::int64_t tasks = 5;
  std::int64_t seed = 42;
  std::int64_t hyper_periods = 100;

  util::ArgParser parser("trace_replay",
                         "replay a recorded per-job workload trace through "
                         "every schedule method");
  parser.AddString("trace", &trace_path,
                   "trace CSV of per-job fractions (default: the built-in "
                   "sample recording)");
  parser.AddInt("tasks", &tasks, "number of tasks in the random set");
  parser.AddInt("seed", &seed, "task-set seed");
  parser.AddInt("hyper-periods", &hyper_periods, "simulated hyper-periods");
  try {
    if (!parser.Parse(argc, argv)) {
      return 0;
    }

    // 1. Load the trace (writing the built-in sample out first if no file
    //    was given, to demonstrate the CSV round-trip).
    std::string temp_path;
    if (trace_path.empty()) {
      temp_path = "trace_replay_sample.csv";
      std::ofstream out(temp_path);
      out << kSampleTrace;
      trace_path = temp_path;
      std::cout << "no --trace given; using the built-in sample recording\n";
    }
    const auto scenario = workload::LoadTraceScenario(trace_path);

    // 2. A processor model and a task set.
    const model::LinearDvsModel cpu = workload::DefaultModel();
    workload::RandomTaskSetOptions gen;
    gen.num_tasks = static_cast<int>(tasks);
    gen.bcec_wcec_ratio = 0.3;
    stats::Rng rng(static_cast<std::uint64_t>(seed));
    const model::TaskSet set = workload::GenerateRandomTaskSet(gen, cpu, rng);
    std::cout << "task set: " << set.Describe() << "\n\n";

    // 3. Every registered method under the identical replay.
    core::ExperimentOptions options;
    options.hyper_periods = hyper_periods;
    options.seed = static_cast<std::uint64_t>(seed);
    options.scenario = scenario.get();

    const fps::FullyPreemptiveSchedule fps(set);
    core::MethodContext context(fps, cpu);
    const core::MethodRegistry& registry = core::MethodRegistry::Builtin();
    // Pad every name to the longest one plus a space, so no name runs into
    // its label.
    std::size_t name_width = 0;
    for (const std::string& name : registry.Names()) {
      name_width = std::max(name_width, name.size());
    }
    double wcs_energy = 0.0;
    for (const std::string& name : registry.Names()) {
      const core::MethodOutcome outcome =
          EvaluateMethod(registry.Get(name), context, options);
      if (name == "wcs") {
        wcs_energy = outcome.measured_energy;
      }
      std::cout << util::PadRight(name, name_width + 1)
                << "energy/hyper-period: " << outcome.measured_energy
                << "  (misses: " << outcome.deadline_misses << ")\n";
    }
    std::cout << "\nreplay is deterministic: rerunning this command "
                 "reproduces these numbers bit-for-bit (WCS reference "
              << wcs_energy << ")\n";
    if (!temp_path.empty()) {
      std::remove(temp_path.c_str());
    }
    return 0;
  } catch (const util::Error& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 1;
  }
}
