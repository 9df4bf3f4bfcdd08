// Run manifests: one JSON document per RunGrid/bench invocation recording
// what ran, where, and what the metrics saw.
//
// Schema "acs.run_manifest/1":
//
//   {
//     "schema":  "acs.run_manifest/1",
//     "tool":    program name,
//     "build":   { git_sha, compiler, build_type, simd },
//                (simd names the cube-root path the host runs; both
//                 paths return identical bits, so no result depends on it)
//     "run":     { master_seed, threads, hardware_threads,
//                  shard_count, wall_ms },
//     "shards":  [shard indices this document covers],
//     "config":  { flat string map of the grid/bench configuration },
//     "execution": { flat string map of per-shard execution settings,
//                    e.g. the cache directory },
//     "metrics": { counters: {name: n}, gauges: {name: x},
//                  histograms: {name: {bounds, buckets, count, sum,
//                                      min, max}} }
//   }
//
// MergeManifests combines per-shard documents into the one an unsharded
// run would have written: tool/build/config/master_seed/shard_count must
// agree (conflicts are hard errors, mirroring runner::MergeShardCsvs);
// "execution" may differ per shard and is kept as a list, one object per
// input document;
// shard coverage must be exactly 0..shard_count-1 with no duplicates
// (double-merge detection), wall times sum, counters sum, gauges max.
#ifndef ACS_OBS_MANIFEST_H
#define ACS_OBS_MANIFEST_H

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace dvs::obs {

class MetricsRegistry;

/// Build identity baked in at configure time (CMake passes ACS_GIT_SHA /
/// ACS_BUILD_TYPE to manifest.cc; the compiler comes from __VERSION__).
std::string BuildGitSha();
std::string BuildCompiler();
std::string BuildTypeName();

struct RunManifest {
  std::string tool;
  std::uint64_t master_seed = 0;
  std::int64_t threads = 1;
  std::size_t shard_index = 0;
  std::size_t shard_count = 1;
  double wall_ms = 0.0;
  /// Flat configuration key/value pairs, serialised in this order.  Shards
  /// of one run must agree on every one.
  std::vector<std::pair<std::string, std::string>> config;
  /// Per-shard execution settings that do not change results (cache
  /// directory, read-only flag); never compared across shards.
  std::vector<std::pair<std::string, std::string>> execution;
};

/// Renders the manifest JSON; `metrics` (optional) contributes the
/// aggregated "metrics" section.
std::string RenderManifest(const RunManifest& manifest,
                           const MetricsRegistry* metrics);

/// Renders and writes to `path`; throws util::Error on an unwritable path.
void WriteManifest(const std::string& path, const RunManifest& manifest,
                   const MetricsRegistry* metrics);

/// Merges per-shard manifest documents (see file comment).  Throws
/// util::Error on a conflict, duplicate shard coverage, or incomplete
/// coverage.
std::string MergeManifests(const std::vector<std::string>& texts);

}  // namespace dvs::obs

#endif  // ACS_OBS_MANIFEST_H
