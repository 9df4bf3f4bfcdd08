#include "core/method_registry.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <limits>
#include <string>

#include "core/pipeline.h"
#include "fps/expansion.h"
#include "util/error.h"
#include "workload/motivation.h"
#include "workload/presets.h"

namespace dvs::core {
namespace {

ExperimentOptions FastOptions() {
  ExperimentOptions options;
  options.hyper_periods = 25;
  options.seed = 42;
  return options;
}

TEST(MethodRegistry, BuiltinsAreSelectableByName) {
  const MethodRegistry& registry = MethodRegistry::Builtin();
  const std::vector<std::string> expected = {
      "acs",          "wcs",         "wcs-static",
      "greedy-reclaim", "static-vmax", "acs-scenario",
      "acs-mixture",  "acs-online",  "acs-online-drift"};
  EXPECT_EQ(registry.Names(), expected);
  for (const std::string& name : expected) {
    EXPECT_TRUE(registry.Contains(name)) << name;
    EXPECT_FALSE(registry.Description(name).empty());
    registry.Get(name);  // must not throw
  }
  // Names outside the list, such as an arm the tournament (DESIGN.md §4)
  // rejected, take the unknown-method error.
  EXPECT_FALSE(registry.Contains("acs-quantile"));
  EXPECT_THROW(registry.Get("acs-quantile"), util::InvalidArgumentError);
}

TEST(MethodRegistry, UnknownNameFailsWithClearError) {
  const MethodRegistry& registry = MethodRegistry::Builtin();
  EXPECT_FALSE(registry.Contains("no-such-method"));
  try {
    registry.Get("no-such-method");
    FAIL() << "expected InvalidArgumentError";
  } catch (const util::InvalidArgumentError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("no-such-method"), std::string::npos) << what;
    // The message lists the registered methods so the caller can recover.
    EXPECT_NE(what.find("acs"), std::string::npos) << what;
    EXPECT_NE(what.find("wcs"), std::string::npos) << what;
  }
}

TEST(MethodRegistry, RejectsDuplicateAndEmptyNames) {
  MethodRegistry registry;
  class Dummy final : public ScheduleMethod {
   public:
    MethodPlan Plan(MethodContext& context) const override {
      MethodPlan plan{context.VmaxAsap(), sim::VmaxPolicy(context.dvs()), 0.0,
                      false};
      return plan;
    }
  };
  registry.Register("dummy", "test", std::make_unique<Dummy>());
  EXPECT_THROW(registry.Register("dummy", "again", std::make_unique<Dummy>()),
               util::InvalidArgumentError);
  EXPECT_THROW(registry.Register("", "unnamed", std::make_unique<Dummy>()),
               util::InvalidArgumentError);
}

TEST(MethodRegistry, ShimMatchesDirectEvaluation) {
  const model::LinearDvsModel cpu = workload::MotivationModel();
  const model::TaskSet set = workload::MotivationTaskSet();
  const ExperimentOptions options = FastOptions();

  const ComparisonResult shim = CompareAcsWcs(set, cpu, options);

  const fps::FullyPreemptiveSchedule fps(set);
  MethodContext context(fps, cpu);
  const MethodRegistry& registry = MethodRegistry::Builtin();
  const MethodOutcome acs =
      EvaluateMethod(registry.Get("acs"), context, options);
  const MethodOutcome wcs =
      EvaluateMethod(registry.Get("wcs"), context, options);

  EXPECT_EQ(shim.acs.measured_energy, acs.measured_energy);
  EXPECT_EQ(shim.acs.predicted_energy, acs.predicted_energy);
  EXPECT_EQ(shim.wcs.measured_energy, wcs.measured_energy);
  EXPECT_EQ(shim.wcs.predicted_energy, wcs.predicted_energy);
  EXPECT_EQ(shim.acs.deadline_misses, 0);
  EXPECT_EQ(shim.wcs.deadline_misses, 0);
}

// The expected-case readers' sorted rows are built once, on first use, in
// the context's cached calibration entry.
TEST(MethodRegistry, SortedDrawsAreBuiltOnFirstUse) {
  const model::LinearDvsModel cpu = workload::MotivationModel();
  const model::TaskSet set = workload::MotivationTaskSet();
  const fps::FullyPreemptiveSchedule fps(set);
  MethodContext context(fps, cpu);
  ExperimentOptions options = FastOptions();
  options.planning.calibration_samples = 64;
  const workload::Calibration& calibration =
      context.ScenarioCalibration(options);
  EXPECT_TRUE(calibration.sorted.empty());

  const std::vector<std::vector<double>>& sorted =
      context.SortedDraws(calibration);
  EXPECT_EQ(&sorted, &calibration.sorted);
  ASSERT_EQ(sorted.size(), calibration.draws.size());
  for (std::size_t task = 0; task < sorted.size(); ++task) {
    EXPECT_TRUE(std::is_sorted(sorted[task].begin(), sorted[task].end()));
    EXPECT_TRUE(std::is_permutation(sorted[task].begin(), sorted[task].end(),
                                    calibration.draws[task].begin(),
                                    calibration.draws[task].end()));
  }
  EXPECT_EQ(&context.SortedDraws(calibration), &sorted);

  // Only calibrations of this context's cache are served.
  const workload::Calibration foreign = calibration;
  EXPECT_THROW(context.SortedDraws(foreign), util::InvalidArgumentError);
}

TEST(MethodRegistry, StaticVmaxIsTheEnergyCeiling) {
  const model::LinearDvsModel cpu = workload::MotivationModel();
  const model::TaskSet set = workload::MotivationTaskSet();
  const ExperimentOptions options = FastOptions();

  const fps::FullyPreemptiveSchedule fps(set);
  MethodContext context(fps, cpu);
  const MethodRegistry& registry = MethodRegistry::Builtin();

  const MethodOutcome ceiling =
      EvaluateMethod(registry.Get("static-vmax"), context, options);
  EXPECT_GT(ceiling.measured_energy, 0.0);

  // Identical workload realisations (same seed) at voltages <= vmax: no
  // method can burn more energy than running everything at vmax.
  for (const char* name : {"acs", "wcs", "wcs-static", "greedy-reclaim"}) {
    const MethodOutcome outcome =
        EvaluateMethod(registry.Get(name), context, options);
    EXPECT_LE(outcome.measured_energy, ceiling.measured_energy + 1e-9) << name;
    EXPECT_EQ(outcome.deadline_misses, 0) << name;
  }
}

// Direct callers get the range checks grids get: the drift arm rejects a
// meaningless detector setting and the simulator a negative or non-finite
// transition overhead, naming the field and no source location.
TEST(MethodRegistry, DirectCallersRejectBadDriftAndTransitionSettings) {
  const model::LinearDvsModel cpu = workload::MotivationModel();
  const model::TaskSet set = workload::MotivationTaskSet();
  const fps::FullyPreemptiveSchedule fps(set);
  const ScheduleMethod& drift_arm =
      MethodRegistry::Builtin().Get("acs-online-drift");
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const auto expect_rejected = [](const std::function<void()>& run,
                                  const std::string& field, double value) {
    try {
      run();
      ADD_FAILURE() << field << " = " << value << " was accepted";
    } catch (const util::InvalidArgumentError& error) {
      const std::string what = error.what();
      EXPECT_NE(what.find(field), std::string::npos) << what;
      EXPECT_EQ(what.find(".cc:"), std::string::npos) << what;
    }
  };
  ExperimentOptions base = FastOptions();
  base.hyper_periods = 4;
  base.planning.calibration_samples = 64;
  MethodContext context(fps, cpu);

  for (const double bad : {5.0, -1.0, nan, inf}) {
    ExperimentOptions options = base;
    options.online.drift_ewma = bad;
    expect_rejected([&] { EvaluateMethod(drift_arm, context, options); },
                    "drift_ewma", bad);
  }
  for (const double bad : {-1.0, nan, inf}) {
    ExperimentOptions options = base;
    options.online.drift_threshold = bad;
    expect_rejected([&] { EvaluateMethod(drift_arm, context, options); },
                    "drift_threshold", bad);
  }
  for (const double bad : {-1.0, nan, inf}) {
    ExperimentOptions time = base;
    time.transition.time_per_volt = bad;
    expect_rejected([&] { CompareAcsWcs(set, cpu, time); }, "time_per_volt",
                    bad);
    ExperimentOptions energy = base;
    energy.transition.energy_per_volt = bad;
    expect_rejected([&] { CompareAcsWcs(set, cpu, energy); },
                    "energy_per_volt", bad);
  }
}

}  // namespace
}  // namespace dvs::core
