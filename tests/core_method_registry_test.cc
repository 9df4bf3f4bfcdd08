#include "core/method_registry.h"

#include <gtest/gtest.h>

#include <algorithm>

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
  MethodContext context(fps, cpu, options.scheduler);
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

TEST(MethodRegistry, StaticVmaxIsTheEnergyCeiling) {
  const model::LinearDvsModel cpu = workload::MotivationModel();
  const model::TaskSet set = workload::MotivationTaskSet();
  const ExperimentOptions options = FastOptions();

  const fps::FullyPreemptiveSchedule fps(set);
  MethodContext context(fps, cpu, options.scheduler);
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

}  // namespace
}  // namespace dvs::core
