// The benches' shared run plumbing (bench/bench_common.h): what a run
// records about itself, and what a rejected configuration leaves behind.
#include "bench_common.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <functional>
#include <initializer_list>
#include <sstream>
#include <string>
#include <vector>

#include "obs/manifest.h"
#include "util/error.h"

namespace dvs::bench {
namespace {

using Entries = std::vector<std::pair<std::string, std::string>>;

bool HasKey(const Entries& entries, const std::string& key) {
  return std::any_of(entries.begin(), entries.end(),
                     [&](const auto& entry) { return entry.first == key; });
}

void Parse(util::ArgParser& parser, std::initializer_list<const char*> args) {
  std::vector<const char*> argv{"bench_test"};
  argv.insert(argv.end(), args);
  ASSERT_TRUE(parser.Parse(static_cast<int>(argv.size()), argv.data()));
}

/// Writes the manifest of a grid-less run of shard `shard` of 2 configured
/// by `args`, and returns its text.
std::string ShardManifest(std::initializer_list<const char*> args,
                          std::int64_t shard) {
  const std::string path = ::testing::TempDir() + "bench_common_manifest_" +
                           std::to_string(shard) + ".json";
  {
    SweepConfig config;
    util::ArgParser parser("bench_test", "test");
    config.Register(parser);
    Parse(parser, args);
    config.manifest_out = path;
    config.shard_index = shard;
    config.shard_count = 2;
    config.Finalize();
    config.WriteRunArtifacts();
  }
  std::ifstream in(path);
  std::ostringstream text;
  text << in.rdbuf();
  std::remove(path.c_str());
  return text.str();
}

TEST(RunRecord, ResultKnobsGoToConfigAndRunSettingsToExecution) {
  SweepConfig config;
  FleetFlags fleet;
  fleet.cores = "1,4";
  util::ArgParser parser("bench_test", "test");
  config.Register(parser);
  fleet.Register(parser, config);
  Parse(parser, {"--drift-threshold", "0.3", "--threads", "3",
                 "--grid-repeats", "2", "--cores", "2", "--dpm"});

  const RunRecord record = config.Record();
  for (const char* key : {"drift_threshold", "drift_ewma", "online_dp_bins",
                          "mixture_samples", "calibration_samples", "dpm",
                          "sleep_state", "critical_speed", "realloc_after",
                          "dpm_no_realloc", "warm_start", "cores",
                          "idle_power", "per_core_utilization"}) {
    EXPECT_TRUE(HasKey(record.config, key)) << key;
  }
  for (const char* key : {"threads", "grid_repeats", "cache_dir"}) {
    EXPECT_TRUE(HasKey(record.execution, key)) << key;
    EXPECT_FALSE(HasKey(record.config, key)) << key;
  }
  for (const Entries::value_type& entry :
       {Entries::value_type{"cores", "2"}, {"drift_threshold", "0.3"},
        {"tasksets", "8"}}) {
    EXPECT_NE(std::find(record.config.begin(), record.config.end(), entry),
              record.config.end())
        << entry.first << "=" << entry.second;
  }
  // --replicates is an alias of --tasksets: recorded once, as tasksets.
  EXPECT_FALSE(HasKey(record.config, "replicates"));
}

TEST(RunManifest, ShardsMergeAcrossThreadCountsButNotAcrossKnobs) {
  // CI runs the shards of one grid at different --threads: they must merge.
  EXPECT_NO_THROW(obs::MergeManifests(
      {ShardManifest({"--threads", "1"}, 0),
       ShardManifest({"--threads", "2", "--grid-repeats", "3"}, 1)}));
  // Two runs that differ only in a planning knob are different runs.
  EXPECT_THROW(obs::MergeManifests(
                   {ShardManifest({"--drift-threshold", "0.05"}, 0),
                    ShardManifest({"--drift-threshold", "0.1"}, 1)}),
               util::Error);
}

TEST(SweepConfigFinalize, RejectedShardCreatesNothing) {
  const std::string csv = ::testing::TempDir() + "bench_common_bad_shard.csv";
  for (const auto& [index, count] : {std::pair<std::int64_t, std::int64_t>{5, 2},
                                     {-1, 2},
                                     {0, 0}}) {
    SweepConfig config;
    config.cell_csv = csv;
    config.shard_index = index;
    config.shard_count = count;
    EXPECT_THROW(config.Finalize(), util::InvalidArgumentError);
    EXPECT_FALSE(std::ifstream(csv).good()) << index << "/" << count;
  }
}

// A rejected flag value reads as the message alone: no source path, no
// line number, no C++ condition text.
TEST(UserInputErrors, CarryNoSourceLocation) {
  const auto message_of = [](const std::function<void()>& action) {
    try {
      action();
    } catch (const util::InvalidArgumentError& error) {
      return std::string(error.what());
    }
    ADD_FAILURE() << "no InvalidArgumentError thrown";
    return std::string();
  };
  std::vector<std::string> messages;
  messages.push_back(message_of([] {
    SweepConfig config;
    config.shard_index = 5;
    config.shard_count = 2;
    config.Finalize();
  }));
  messages.push_back(message_of([] {
    SweepConfig config;
    config.methods = ",";
    config.MethodList();
  }));
  messages.push_back(message_of([] {
    SweepConfig config;
    config.scenarios = "";
    config.ScenarioList();
  }));
  for (const char* text : {"4x", "0", "-2", "", "x"}) {
    messages.push_back(
        message_of([text] { ParsePositiveIntList("cores", text); }));
  }
  messages.push_back(
      message_of([] { ParsePositiveDoubleList("sigmas", "6,inf"); }));
  for (const std::string& message : messages) {
    EXPECT_FALSE(message.empty());
    EXPECT_EQ(message.find(".cc"), std::string::npos) << message;
    EXPECT_EQ(message.find("requirement"), std::string::npos) << message;
  }
}

// The DPM flags belong to the multi-core group: registered with --cores
// only, and applied to the grid by FleetFlags::Apply.
TEST(FleetFlags, DpmFlagsComeWithCoresAndReachTheGrid) {
  {
    SweepConfig config;
    FleetFlags single_core;  // no --cores
    util::ArgParser parser("bench_test", "test");
    config.Register(parser);
    single_core.Register(parser, config);
    const char* argv[] = {"bench_test", "--dpm"};
    EXPECT_THROW(parser.Parse(2, argv), util::InvalidArgumentError);
  }
  SweepConfig config;
  FleetFlags fleet;
  fleet.cores = "2";
  util::ArgParser parser("bench_test", "test");
  config.Register(parser);
  fleet.Register(parser, config);
  Parse(parser, {"--dpm", "--idle-power", "0.4", "--sleep-state", "ideal",
                 "--critical-speed", "0.5", "--dpm-no-realloc",
                 "--realloc-after", "3"});
  runner::ExperimentGrid grid;
  fleet.Apply(config, grid);
  EXPECT_DOUBLE_EQ(grid.idle_power.power_per_ms, 0.4);
  EXPECT_TRUE(grid.dpm.enabled);
  EXPECT_DOUBLE_EQ(grid.dpm.idle.power_per_ms, 0.4);
  EXPECT_TRUE(grid.dpm.sleep.IsZero());
  EXPECT_DOUBLE_EQ(grid.dpm.critical_speed, 0.5);
  EXPECT_FALSE(grid.dpm.reallocate);
  EXPECT_EQ(grid.dpm.realloc_after, 3);
}

TEST(FleetFlags, PerCoreCountSource) {
  FleetFlags fleet;
  fleet.per_core_utilization = 0.5;
  const runner::TaskSetSource two = fleet.Source(2, 3);
  EXPECT_EQ(two.label, "random-m2");
  EXPECT_EQ(two.replicates, 3);
  EXPECT_EQ(two.random.num_tasks, 6);  // max(6, 3m)
  EXPECT_DOUBLE_EQ(two.random.bcec_wcec_ratio, 0.3);
  EXPECT_DOUBLE_EQ(two.random.utilization, 1.0);
  EXPECT_EQ(two.random.max_sub_instances, 350);
  EXPECT_EQ(fleet.Source(4, 1).random.num_tasks, 12);
}

}  // namespace
}  // namespace dvs::bench
