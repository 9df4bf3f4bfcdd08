#include "obs/manifest.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <thread>

#include "obs/metrics.h"
#include "util/error.h"
#include "util/json.h"
#include "util/simd.h"

// Build identity injected by CMake onto this translation unit only (so a
// new commit re-compiles one file, not the library).
#ifndef ACS_GIT_SHA
#define ACS_GIT_SHA "unknown"
#endif
#ifndef ACS_BUILD_TYPE
#define ACS_BUILD_TYPE "unknown"
#endif

namespace dvs::obs {
namespace {

constexpr char kSchema[] = "acs.run_manifest/1";

void WriteBuildSection(util::JsonWriter& json) {
  json.Key("build").BeginObject();
  json.Key("git_sha").Value(BuildGitSha());
  json.Key("compiler").Value(BuildCompiler());
  json.Key("build_type").Value(BuildTypeName());
  json.Key("simd").Value(util::simd::LevelName(util::simd::Active()));
  json.EndObject();
}

void WriteMetricsSection(util::JsonWriter& json,
                         const std::vector<AggregatedMetric>& metrics) {
  json.Key("metrics").BeginObject();
  json.Key("counters").BeginObject();
  for (const AggregatedMetric& m : metrics) {
    if (m.kind == MetricKind::kCounter) {
      json.Key(m.name).Value(static_cast<std::int64_t>(m.count));
    }
  }
  json.EndObject();
  json.Key("gauges").BeginObject();
  for (const AggregatedMetric& m : metrics) {
    if (m.kind == MetricKind::kGauge) {
      json.Key(m.name).Value(m.value);
    }
  }
  json.EndObject();
  json.Key("histograms").BeginObject();
  for (const AggregatedMetric& m : metrics) {
    if (m.kind != MetricKind::kHistogram) {
      continue;
    }
    json.Key(m.name).BeginObject();
    json.Key("bounds").BeginArray();
    for (double bound : m.bounds) {
      json.Value(bound);
    }
    json.EndArray();
    json.Key("buckets").BeginArray();
    for (std::int64_t bucket : m.buckets) {
      json.Value(bucket);
    }
    json.EndArray();
    json.Key("count").Value(static_cast<std::int64_t>(m.count));
    json.Key("sum").Value(m.value);
    json.Key("min").Value(m.min);
    json.Key("max").Value(m.max);
    json.EndObject();
  }
  json.EndObject();
  json.EndObject();
}

/// Re-serialises a parsed JSON value (used by the merge to copy sections it
/// only validates, preserving member order).
void WriteValue(util::JsonWriter& json, const util::JsonValue& value) {
  switch (value.kind) {
    case util::JsonValue::Kind::kNull:
      json.Null();
      break;
    case util::JsonValue::Kind::kBool:
      json.Value(value.bool_value);
      break;
    case util::JsonValue::Kind::kNumber:
      json.Value(value.number);
      break;
    case util::JsonValue::Kind::kString:
      json.Value(value.string);
      break;
    case util::JsonValue::Kind::kArray:
      json.BeginArray();
      for (const util::JsonValue& element : value.array) {
        WriteValue(json, element);
      }
      json.EndArray();
      break;
    case util::JsonValue::Kind::kObject:
      json.BeginObject();
      for (const auto& [key, member] : value.object) {
        json.Key(key);
        WriteValue(json, member);
      }
      json.EndObject();
      break;
  }
}

/// Canonical text of a subtree for equality checks in the merge.
std::string Canonical(const util::JsonValue& value) {
  util::JsonWriter json;
  WriteValue(json, value);
  return json.str();
}

/// A folded measurement must be a finite number.  Shards serialise
/// non-finite values as null (util::JsonWriter), and folding a null (which
/// parses as 0) or an overflowed Inf into the sums and maxes below would
/// silently poison the merged document — better to refuse the merge and
/// name the culprit.
double FoldableNumber(const util::JsonValue& value, const std::string& what,
                      std::size_t index) {
  if (!value.IsNumber() || !std::isfinite(value.number)) {
    throw util::Error("manifest " + std::to_string(index) + ": " + what +
                      " is not a finite number (non-finite metrics "
                      "serialise as null and cannot be folded)");
  }
  return value.number;
}

const util::JsonValue& Section(const util::JsonValue& doc,
                               const std::string& key, std::size_t index) {
  const util::JsonValue* found = doc.Find(key);
  if (found == nullptr) {
    throw util::Error("manifest " + std::to_string(index) +
                      " is missing \"" + key + "\"");
  }
  return *found;
}

}  // namespace

std::string BuildGitSha() { return ACS_GIT_SHA; }

std::string BuildCompiler() {
#if defined(__clang__)
  return std::string("clang ") + __VERSION__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

std::string BuildTypeName() { return ACS_BUILD_TYPE; }

std::string RenderManifest(const RunManifest& manifest,
                           const MetricsRegistry* metrics) {
  util::JsonWriter json;
  json.BeginObject();
  json.Key("schema").Value(kSchema);
  json.Key("tool").Value(manifest.tool);
  WriteBuildSection(json);
  json.Key("run").BeginObject();
  json.Key("master_seed").Value(static_cast<std::uint64_t>(manifest.master_seed));
  json.Key("threads").Value(static_cast<std::int64_t>(manifest.threads));
  json.Key("hardware_threads")
      .Value(static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
  json.Key("shard_count")
      .Value(static_cast<std::uint64_t>(manifest.shard_count));
  json.Key("wall_ms").Value(manifest.wall_ms);
  json.EndObject();
  json.Key("shards").BeginArray();
  json.Value(static_cast<std::uint64_t>(manifest.shard_index));
  json.EndArray();
  json.Key("config").BeginObject();
  for (const auto& [key, value] : manifest.config) {
    json.Key(key).Value(value);
  }
  json.EndObject();
  json.Key("execution").BeginObject();
  for (const auto& [key, value] : manifest.execution) {
    json.Key(key).Value(value);
  }
  json.EndObject();
  if (metrics != nullptr) {
    WriteMetricsSection(json, metrics->Aggregate());
  }
  json.EndObject();
  return json.str();
}

void WriteManifest(const std::string& path, const RunManifest& manifest,
                   const MetricsRegistry* metrics) {
  std::ofstream out(path);
  if (!out) {
    throw util::Error("cannot open manifest output file: " + path);
  }
  out << RenderManifest(manifest, metrics) << '\n';
}

std::string MergeManifests(const std::vector<std::string>& texts) {
  if (texts.empty()) {
    throw util::Error("no manifests to merge");
  }
  std::vector<util::JsonValue> docs;
  docs.reserve(texts.size());
  for (std::size_t i = 0; i < texts.size(); ++i) {
    docs.push_back(util::ParseJson(texts[i]));
    if (docs.back().StringAt("schema") != kSchema) {
      throw util::Error("manifest " + std::to_string(i) +
                        " has unsupported schema \"" +
                        docs.back().StringAt("schema") + "\"");
    }
  }

  // Everything that identifies the run must agree across the shards; a
  // mismatch means the inputs came from different runs (or different
  // binaries) and merging them would fabricate a result.
  const util::JsonValue& first = docs.front();
  const std::string tool = first.StringAt("tool");
  const std::string build = Canonical(Section(first, "build", 0));
  const std::string config = Canonical(Section(first, "config", 0));
  const double master_seed = first.At("run").NumberAt("master_seed");
  const double shard_count_raw = first.At("run").NumberAt("shard_count");
  const auto shard_count = static_cast<std::size_t>(shard_count_raw);
  for (std::size_t i = 1; i < docs.size(); ++i) {
    const util::JsonValue& doc = docs[i];
    if (doc.StringAt("tool") != tool) {
      throw util::Error("manifest conflict: tool \"" + doc.StringAt("tool") +
                        "\" vs \"" + tool + "\"");
    }
    if (Canonical(Section(doc, "build", i)) != build) {
      throw util::Error("manifest conflict: shard builds differ (manifest " +
                        std::to_string(i) + ")");
    }
    if (Canonical(Section(doc, "config", i)) != config) {
      throw util::Error("manifest conflict: shard configs differ (manifest " +
                        std::to_string(i) + ")");
    }
    if (doc.At("run").NumberAt("master_seed") != master_seed) {
      throw util::Error("manifest conflict: master_seed differs (manifest " +
                        std::to_string(i) + ")");
    }
    if (doc.At("run").NumberAt("shard_count") != shard_count_raw) {
      throw util::Error("manifest conflict: shard_count differs (manifest " +
                        std::to_string(i) + ")");
    }
  }

  // Shard coverage: every index 0..shard_count-1 exactly once.  A repeated
  // index is a double merge (the same shard fed in twice, or an
  // already-merged document fed back in alongside one of its inputs).
  std::vector<bool> seen(shard_count, false);
  std::vector<std::size_t> covered;
  for (std::size_t i = 0; i < docs.size(); ++i) {
    // An empty list is legal: a shard whose cell range came out empty (a
    // shard count above the grid's set count) still writes a manifest, and
    // its measurements still fold below.  Only the list's *shape* is
    // validated here; full coverage is enforced after the loop.
    const util::JsonValue& shards = Section(docs[i], "shards", i);
    if (!shards.IsArray()) {
      throw util::Error("manifest " + std::to_string(i) +
                        " has a non-array \"shards\" entry");
    }
    for (const util::JsonValue& entry : shards.array) {
      if (!entry.IsNumber() ||
          static_cast<std::size_t>(entry.number) >= shard_count) {
        throw util::Error("manifest " + std::to_string(i) +
                          " covers an out-of-range shard index");
      }
      const auto index = static_cast<std::size_t>(entry.number);
      if (seen[index]) {
        throw util::Error("double merge: shard " + std::to_string(index) +
                          " appears in more than one manifest");
      }
      seen[index] = true;
      covered.push_back(index);
    }
  }
  for (std::size_t index = 0; index < shard_count; ++index) {
    if (!seen[index]) {
      throw util::Error("missing shard: no manifest covers shard " +
                        std::to_string(index) + " of " +
                        std::to_string(shard_count));
    }
  }
  std::sort(covered.begin(), covered.end());

  // Fold the per-shard measurements: wall times and counters sum, threads
  // and gauges take the max, histogram buckets sum element-wise.
  double wall_ms = 0.0;
  double threads = 0.0;
  std::vector<std::pair<std::string, double>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  struct Histogram {
    std::string name;
    std::vector<double> bounds;
    std::vector<double> buckets;
    double count = 0.0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;
  };
  std::vector<Histogram> histograms;
  bool any_metrics = false;
  for (std::size_t i = 0; i < docs.size(); ++i) {
    const util::JsonValue& run = docs[i].At("run");
    wall_ms += run.NumberAt("wall_ms");
    threads = std::max(threads, run.NumberAt("threads"));
    const util::JsonValue* metrics = docs[i].Find("metrics");
    if (metrics == nullptr) {
      continue;
    }
    any_metrics = true;
    for (const auto& [name, value] : metrics->At("counters").object) {
      const double number =
          FoldableNumber(value, "counter \"" + name + "\"", i);
      auto it = std::find_if(counters.begin(), counters.end(),
                             [&](const auto& c) { return c.first == name; });
      if (it == counters.end()) {
        counters.emplace_back(name, number);
      } else {
        it->second += number;
      }
    }
    for (const auto& [name, value] : metrics->At("gauges").object) {
      const double number = FoldableNumber(value, "gauge \"" + name + "\"", i);
      auto it = std::find_if(gauges.begin(), gauges.end(),
                             [&](const auto& g) { return g.first == name; });
      if (it == gauges.end()) {
        gauges.emplace_back(name, number);
      } else {
        it->second = std::max(it->second, number);
      }
    }
    for (const auto& [name, value] : metrics->At("histograms").object) {
      auto it = std::find_if(histograms.begin(), histograms.end(),
                             [&](const Histogram& h) { return h.name == name; });
      if (it == histograms.end()) {
        histograms.emplace_back();
        it = histograms.end() - 1;
        it->name = name;
        for (const util::JsonValue& bound : value.At("bounds").array) {
          it->bounds.push_back(bound.number);
        }
        it->buckets.assign(it->bounds.size() + 1, 0.0);
        it->min = value.NumberAt("min");
        it->max = value.NumberAt("max");
      }
      const util::JsonValue& buckets = value.At("buckets");
      if (buckets.array.size() != it->buckets.size()) {
        throw util::Error("manifest conflict: histogram \"" + name +
                          "\" bucket layouts differ");
      }
      const std::string what = "histogram \"" + name + "\"";
      for (std::size_t b = 0; b < buckets.array.size(); ++b) {
        it->buckets[b] += FoldableNumber(buckets.array[b], what + " bucket", i);
      }
      const double count = FoldableNumber(value.At("count"), what + " count", i);
      if (count > 0.0) {
        const double mn = FoldableNumber(value.At("min"), what + " min", i);
        const double mx = FoldableNumber(value.At("max"), what + " max", i);
        if (it->count == 0.0) {
          it->min = mn;
          it->max = mx;
        } else {
          it->min = std::min(it->min, mn);
          it->max = std::max(it->max, mx);
        }
      }
      it->count += count;
      it->sum += FoldableNumber(value.At("sum"), what + " sum", i);
    }
  }

  util::JsonWriter json;
  json.BeginObject();
  json.Key("schema").Value(kSchema);
  json.Key("tool").Value(tool);
  json.Key("build");
  WriteValue(json, Section(first, "build", 0));
  json.Key("run").BeginObject();
  json.Key("master_seed").Value(master_seed);
  json.Key("threads").Value(threads);
  json.Key("hardware_threads")
      .Value(first.At("run").NumberAt("hardware_threads"));
  json.Key("shard_count").Value(shard_count_raw);
  json.Key("wall_ms").Value(wall_ms);
  json.EndObject();
  json.Key("shards").BeginArray();
  for (std::size_t index : covered) {
    json.Value(static_cast<std::uint64_t>(index));
  }
  json.EndArray();
  json.Key("config");
  WriteValue(json, Section(first, "config", 0));
  json.Key("execution").BeginArray();
  for (const util::JsonValue& doc : docs) {
    const util::JsonValue* execution = doc.Find("execution");
    if (execution != nullptr) {
      WriteValue(json, *execution);
    }
  }
  json.EndArray();
  if (any_metrics) {
    json.Key("metrics").BeginObject();
    json.Key("counters").BeginObject();
    for (const auto& [name, value] : counters) {
      json.Key(name).Value(value);
    }
    json.EndObject();
    json.Key("gauges").BeginObject();
    for (const auto& [name, value] : gauges) {
      json.Key(name).Value(value);
    }
    json.EndObject();
    json.Key("histograms").BeginObject();
    for (const Histogram& h : histograms) {
      json.Key(h.name).BeginObject();
      json.Key("bounds").BeginArray();
      for (double bound : h.bounds) {
        json.Value(bound);
      }
      json.EndArray();
      json.Key("buckets").BeginArray();
      for (double bucket : h.buckets) {
        json.Value(bucket);
      }
      json.EndArray();
      json.Key("count").Value(h.count);
      json.Key("sum").Value(h.sum);
      json.Key("min").Value(h.min);
      json.Key("max").Value(h.max);
      json.EndObject();
    }
    json.EndObject();
    json.EndObject();
  }
  json.EndObject();
  return json.str();
}

}  // namespace dvs::obs
