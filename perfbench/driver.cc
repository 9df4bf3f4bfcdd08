// perfbench driver: runs one workload in this process and prints one JSON
// document (the last line of stdout) with the raw measurements — set-up
// times, per-op latencies, failures, deterministic outputs, provenance and,
// for a traced run, the per-layer metrics.  perfbench/run.py turns it into
// the benchmark's metrics.
//
//   perfbench_driver --workload sim-online|grid-warm --seed N
//                    --seconds S [--trace 0|1] [--smoke 0|1] --tmp DIR
#include <unistd.h>

#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>
#include <thread>

#include "bench.h"
#include "obs/manifest.h"
#include "util/json.h"
#include "util/simd.h"

namespace {

using perfbench::Config;
using perfbench::Report;

bool ParseArgs(int argc, char** argv, Config& config) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      config.workload = value;
    } else if (key == "--seed") {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      config.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      config.trace = value == "1";
    } else if (key == "--smoke") {
      config.smoke = value == "1";
    } else if (key == "--tmp") {
      config.tmp_dir = value;
    } else {
      std::cerr << "unknown flag " << key << "\n";
      return false;
    }
  }
  if (argc % 2 != 1 || config.workload.empty() || config.tmp_dir.empty() ||
      config.seconds <= 0.0) {
    std::cerr << "usage: perfbench_driver --workload W --seed N --seconds S "
                 "--tmp DIR [--trace 0|1] [--smoke 0|1]\n";
    return false;
  }
  return true;
}

void WriteMap(dvs::util::JsonWriter& json, const std::string& key,
              const std::map<std::string, double>& values) {
  json.Key(key).BeginObject();
  for (const auto& [name, value] : values) {
    json.Key(name).Value(value);
  }
  json.EndObject();
}

}  // namespace

int main(int argc, char** argv) {
  Config config;
  if (!ParseArgs(argc, argv, config)) {
    return 2;
  }
  Report report;
  const double ref_before = perfbench::ReferenceLoopMs();
  try {
    if (config.workload == "sim-online") {
      perfbench::RunSimOnline(config, report);
    } else if (config.workload == "grid-warm") {
      perfbench::RunGridWarm(config, report);
    } else {
      std::cerr << "unknown workload " << config.workload << "\n";
      return 2;
    }
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 1;
  }
  const double ref_after = perfbench::ReferenceLoopMs();

  dvs::util::JsonWriter json;
  json.BeginObject();
  json.Key("workload").Value(config.workload);
  json.Key("provenance")
      .BeginObject()
      .Key("source_id")
      .Value(dvs::obs::BuildGitSha())
      .Key("build_type")
      .Value(dvs::obs::BuildTypeName())
      .Key("compiler")
      .Value(dvs::obs::BuildCompiler())
      .Key("simd")
      .Value(dvs::util::simd::LevelName(dvs::util::simd::Active()))
      .Key("nproc")
      .Value(static_cast<std::int64_t>(sysconf(_SC_NPROCESSORS_ONLN)))
      .Key("threads")
      .Value(static_cast<std::int64_t>(report.threads))
      .Key("seed")
      .Value(static_cast<std::uint64_t>(config.seed))
      .Key("smoke")
      .Value(config.smoke)
      .EndObject();
  json.Key("setup_s").BeginArray();
  for (double s : report.setup_s) {
    json.Value(s);
  }
  json.EndArray();
  json.Key("op_ms").BeginArray();
  for (double ms : report.op_ms) {
    json.Value(ms);
  }
  json.EndArray();
  json.Key("attempted").Value(report.attempted);
  json.Key("failed").Value(report.failed);
  json.Key("failures").BeginArray();
  for (const std::string& message : report.failures) {
    json.Value(message);
  }
  json.EndArray();
  json.Key("work").Value(report.work);
  json.Key("passes").Value(static_cast<std::int64_t>(report.passes));
  json.Key("work_unit").Value(report.work_unit);
  json.Key("peak_rss_mb").Value(perfbench::PeakRssMb());
  json.Key("ref_loop_ms").BeginArray().Value(ref_before).Value(ref_after)
      .EndArray();
  WriteMap(json, "norms", report.norms);
  WriteMap(json, "digest", report.digest);
  WriteMap(json, "layers", report.layers);
  json.EndObject();
  std::cout << json.str() << std::endl;
  return 0;
}
