#include "core/pipeline.h"

#include <cmath>
#include <string>

#include "core/method_registry.h"
#include "util/error.h"

namespace dvs::core {

void OnlineOptions::Validate() const {
  if (!(std::isfinite(drift_ewma) && drift_ewma >= 0.0 && drift_ewma <= 1.0)) {
    throw util::InvalidArgumentError(
        "drift_ewma must be finite and lie in [0, 1], got " +
        std::to_string(drift_ewma));
  }
  if (!(std::isfinite(drift_threshold) && drift_threshold >= 0.0)) {
    throw util::InvalidArgumentError(
        "drift_threshold must be finite and non-negative, got " +
        std::to_string(drift_threshold));
  }
}

std::uint64_t CalibrationSeed(const ExperimentOptions& options) {
  // A fixed fork label (any constant distinct from the per-core fork labels
  // 0..cores-1 and the workload-seed labels) re-seeds an independent stream
  // from the cell's workload seed; see the header contract.
  constexpr std::uint64_t kCalibrationLabel = 0xCA11B2A7E0FF51DEULL;
  return stats::Rng(options.seed).ForkWith(kCalibrationLabel).NextU64();
}

std::unique_ptr<model::WorkloadSampler> MakeRunSampler(
    const ExperimentOptions& options, const model::TaskSet& set) {
  if (options.scenario != nullptr) {
    return options.scenario->MakeSampler(set, options.sigma_divisor);
  }
  return std::make_unique<model::TruncatedNormalWorkload>(
      set, options.sigma_divisor);
}

ComparisonResult CompareAcsWcs(const model::TaskSet& set,
                               const model::DvsModel& dvs,
                               const ExperimentOptions& options) {
  // Compatibility shim over the method registry: the "acs" arm solves WCS
  // first for its warm start (cached in the context, so the "wcs" arm reuses
  // it), and both arms face one workload realisation, drawn once by "acs"
  // and replayed to "wcs" — bit-identical to the original hard-coded pair.
  const fps::FullyPreemptiveSchedule fps(set);
  const MethodRegistry& registry = MethodRegistry::Builtin();
  MethodContext context(fps, dvs);

  ComparisonResult result;
  result.sub_instances = fps.sub_count();
  const std::vector<MethodOutcome> outcomes = EvaluateMethods(
      {&registry.Get("acs"), &registry.Get("wcs")}, context, options);
  result.acs = outcomes[0];
  result.wcs = outcomes[1];
  return result;
}

}  // namespace dvs::core
