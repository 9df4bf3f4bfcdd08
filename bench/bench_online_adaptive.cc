// Online adaptive dispatch sweep: scenario x online arm x sigma x cores.
//
// The scenario-planning sweep (bench_scenario_planning) conditions the
// *offline plan* on the calibrated law; this bench measures what moving the
// expected-case decision *online* buys on top.  It runs the online arms
// (acs-online: calibrated-mean plan + per-dispatch expected-case DP over
// the remaining-work distribution; acs-online-drift: the same plus an EWMA
// drift detector with warm-started mid-run replans) against greedy-reclaim
// and the frozen acs-scenario plan on paired draws, per scenario, sigma
// and core count.
//
// Besides the built-in processes, the sweep adds a "shift" scenario this
// binary registers locally: each task draws from a heavy truncated normal
// (BCEC + 0.7 span) for its first --shift-after jobs, then from a light
// one (BCEC + 0.2 span) for the rest of the run.  The default calibration
// budget (--calibration-samples) equals --shift-after, so offline
// calibration sees only the pre-shift law — the frozen acs-scenario plan
// keeps over-spending for the whole post-shift tail, which is exactly the
// regime the drift arm's replans are for.
//
// Reading: "vs greedy" is the paired improvement over pure online
// reclamation (positive means the expected-case DP beats greedy slack
// chasing — widest under bursty/correlated, whose sticky phases starve the
// greedy policy of usable slack); "vs frozen" is the paired improvement
// over the frozen acs-scenario plan (near zero for the stationary
// processes, positive for acs-online-drift under "shift", where the
// mid-run replan tracks the moved mean).
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench_common.h"
#include "stats/distributions.h"
#include "util/error.h"
#include "util/strings.h"
#include "workload/presets.h"
#include "workload/scenario.h"

namespace {

constexpr const char* kDefaultScenarios =
    "iid-normal,bursty,heavy-tail,correlated,shift";
constexpr const char* kDefaultMethods =
    "greedy-reclaim,acs-scenario,acs-online,acs-online-drift";

using dvs::model::TaskIndex;
using dvs::model::TaskSet;

/// Mid-run distribution shift: task i's first `shift_after` jobs draw from
/// a heavy truncated normal at BCEC + 0.7 span, every later job from a
/// light one at BCEC + 0.2 span (sigma = span / (2 sigma_divisor), the
/// bimodal/bursty mode width) — the "provisioned for a heavy launch
/// window, reality lightened" story, where a plan frozen at the calibrated
/// heavy mean keeps over-spending for the whole post-shift tail.  The
/// per-task job counter makes the shift a property of the *process*, so
/// the clamping contract and paired-seed reproducibility are untouched.
/// Collapsed windows (span == 0) degenerate to the fixed WCEC draw like
/// every built-in.
class ShiftWorkload final : public dvs::model::WorkloadSampler {
 public:
  ShiftWorkload(const TaskSet& set, double sigma_divisor,
                std::int64_t shift_after)
      : shift_after_(shift_after) {
    for (TaskIndex i = 0; i < set.size(); ++i) {
      const dvs::model::Task& t = set.task(i);
      const double span = t.wcec - t.bcec;
      fixed_.push_back(t.wcec);
      if (span > 0.0) {
        const double sigma = span / (2.0 * sigma_divisor);
        heavy_.emplace_back(dvs::stats::TruncatedNormal(
            t.bcec + 0.7 * span, sigma, t.bcec, t.wcec));
        light_.emplace_back(dvs::stats::TruncatedNormal(
            t.bcec + 0.2 * span, sigma, t.bcec, t.wcec));
      } else {
        heavy_.emplace_back(std::nullopt);
        light_.emplace_back(std::nullopt);
      }
    }
    draws_.assign(set.size(), 0);
  }

  double SampleCycles(TaskIndex task, dvs::stats::Rng& rng) const override {
    ACS_REQUIRE(task < draws_.size(), "task index out of range");
    const bool shifted = draws_[task] >= shift_after_;
    ++draws_[task];
    const auto& dist = shifted ? light_[task] : heavy_[task];
    return dist.has_value() ? dist->Sample(rng) : fixed_[task];
  }

 private:
  std::int64_t shift_after_;
  std::vector<std::optional<dvs::stats::TruncatedNormal>> light_;
  std::vector<std::optional<dvs::stats::TruncatedNormal>> heavy_;
  std::vector<double> fixed_;
  mutable std::vector<std::int64_t> draws_;  // per-run state
};

class ShiftScenario final : public dvs::model::WorkloadScenario {
 public:
  explicit ShiftScenario(std::int64_t shift_after)
      : shift_after_(shift_after) {}

  std::unique_ptr<dvs::model::WorkloadSampler> MakeSampler(
      const TaskSet& set, double sigma_divisor) const override {
    return std::make_unique<ShiftWorkload>(set, sigma_divisor, shift_after_);
  }

 private:
  std::int64_t shift_after_;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace dvs;
  bench::SweepConfig config;
  config.tasksets = 8;
  config.hyper_periods = 80;
  config.methods = kDefaultMethods;
  config.baseline = "greedy-reclaim";
  config.scenarios = kDefaultScenarios;
  // Calibrate on exactly the pre-shift prefix (see the header comment);
  // --calibration-samples and --shift-after both remain overridable.
  config.planning.calibration_samples = 256;
  bench::FleetFlags fleet;
  fleet.cores = "1,4";
  fleet.sigmas = "6,10";
  std::int64_t shift_after = 256;

  util::ArgParser parser("bench_online_adaptive",
                         "online expected-case dispatch and drift-replanning "
                         "sweep: scenario x online arm x sigma x cores");
  config.Register(parser);
  fleet.Register(parser, config);
  parser.AddInt("shift-after", &shift_after,
                "per-task job count before the \"shift\" scenario moves its "
                "mean from BCEC + 0.7 span down to BCEC + 0.2 span");
  try {
    if (!parser.Parse(argc, argv)) {
      return 0;
    }
    ACS_REQUIRE(shift_after > 0, "--shift-after must be positive");
    config.Finalize();

    const std::vector<double> sigmas = fleet.SigmaList();
    const std::vector<int> core_counts = fleet.CoreCounts();

    // The built-ins plus this binary's local "shift" process.
    workload::ScenarioRegistry registry;
    workload::RegisterBuiltinScenarios(registry);
    registry.Register("shift",
                      "mid-run mean shift: heavy law for the first "
                      "--shift-after jobs per task, light after",
                      std::make_unique<ShiftScenario>(shift_after));
    const model::LinearDvsModel cpu = workload::DefaultModel();

    std::cout << "Online adaptive dispatch sweep ("
              << util::FormatPercent(fleet.per_core_utilization)
              << " per core, "
              << config.tasksets << " sets/point, " << config.hyper_periods
              << " hyper-periods, " << config.online.dp_bins
              << " DP bins, drift ewma "
              << util::FormatDouble(config.online.drift_ewma, 2)
              << " threshold "
              << util::FormatDouble(config.online.drift_threshold, 2) << ", "
              << config.ResolvedThreads() << " threads)\n\n";

    util::TextTable table({"cores", "scenario", "arm", "fleet power",
                           "vs greedy", "vs frozen", "misses", "failed"});
    util::CsvTable csv({"cores", "scenario", "arm", "fleet_power_mean",
                        "vs_greedy_mean", "vs_greedy_stddev",
                        "vs_frozen_mean", "deadline_misses", "failed_cells"});

    for (int m : core_counts) {
      runner::ExperimentGrid grid = config.MakeGrid(
          cpu, {fleet.Source(m, config.tasksets)},
          static_cast<std::uint64_t>(m));
      grid.core_counts = {m};
      grid.scenario_registry = &registry;
      fleet.Apply(config, grid);
      bench::AppendArmRows(grid, m, sigmas, config, "acs-scenario", table, csv);
    }
    bench::Emit(table, csv, config);
    std::cout << "\nreading: \"vs greedy\" is the paired gain of dispatching "
                 "at the expected-case DP speed instead of greedy slack "
                 "reclamation — widest under bursty/correlated, whose "
                 "sticky phases starve greedy of usable slack; \"vs "
                 "frozen\" isolates the drift arm's mid-run replans, "
                 "positive under \"shift\" where the frozen plan goes "
                 "stale; misses stay 0 (every dispatch keeps the "
                 "worst-case window)\n";
    return 0;
  } catch (const util::Error& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 1;
  }
}
