// End-to-end experiment pipeline: task set -> offline schedules (ACS + WCS)
// -> online simulation on identical workload realisations -> energy
// comparison.  CompareAcsWcs is now a thin shim over the method registry
// (core/method_registry.h); grids of experiments across many methods go
// through runner::RunGrid instead.
#ifndef ACS_CORE_PIPELINE_H
#define ACS_CORE_PIPELINE_H

#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <vector>

#include "core/scheduler.h"
#include "dpm/options.h"
#include "fps/expansion.h"
#include "model/power_model.h"
#include "model/task.h"
#include "model/workload.h"
#include "sim/engine.h"
#include "stats/rng.h"

namespace dvs::core {

/// Knobs of the scenario-conditioned planning arms (acs-scenario /
/// acs-mixture and the online arms built on them): how the offline
/// calibration samples the cell's scenario and how many calibrated vectors
/// the mixture objective averages.  Ignored by every other method, so
/// legacy grids are unaffected.
struct PlanningOptions {
  /// Sample vectors the acs-mixture objective averages over.
  std::int64_t mixture_samples = 8;
  /// Calibration draws per task (workload::ScenarioCalibrator::Options).
  std::int64_t calibration_samples = 2048;
};

/// Knobs of the online expected-case arms (acs-online / acs-online-drift):
/// the dispatch-time DP discretisation and the drift detector that triggers
/// mid-run replans.  Ignored by every other method.
struct OnlineOptions {
  /// Cycle bins of the per-dispatch expected-case speed profile
  /// (sim::ExpectedCasePolicy), 1..64; more bins track the survival curve
  /// closer at the cost of more re-dispatches per sub-instance.
  std::int64_t dp_bins = 8;
  /// EWMA weight of one hyper-period's realised per-task mean cycles
  /// (acs-online-drift): ewma <- (1-w) ewma + w batch_mean.
  double drift_ewma = 0.2;
  /// Replan trigger: max-over-tasks |ewma - planned| / (WCEC - BCEC) above
  /// this fires a recalibrated replan through the warm-start machinery.
  double drift_threshold = 0.2;

  /// Throws util::InvalidArgumentError naming the field unless drift_ewma
  /// is finite and in [0, 1] and drift_threshold is finite and >= 0.
  void Validate() const;
};

/// How the scenario-conditioned planning arms of a grid seed their NLP
/// solve (runner::ExperimentGrid::warm_start; runner::RunCell turns it into
/// ExperimentOptions::sigma_chain).
enum class WarmStartPolicy {
  /// Every planned solve seeds from the WCS incumbent (the legacy path —
  /// byte-identical to the pre-warm-start pipeline).
  kOff,
  /// Continuation along the sigma axis: the cell solves the prefix chain of
  /// sigma divisors in axis order, each solve seeded from the previous
  /// converged schedule (the chain base still seeds from WCS).  The chain
  /// is defined by grid coordinates alone — never by execution order — so
  /// results stay a pure function of the grid at any thread count.
  kNeighbor,
};

struct ExperimentOptions {
  std::int64_t hyper_periods = 200;  // paper: 1000 (set via --paper)
  double sigma_divisor = 6.0;        // workload sigma = (WCEC-BCEC)/divisor
  std::uint64_t seed = 1;            // workload sampling stream
  /// Continuation chain of the scenario-conditioned solves: the
  /// sigma-divisor axis entries up to and including this cell's own
  /// (runner::RunCell fills it under WarmStartPolicy::kNeighbor; the last
  /// entry must equal sigma_divisor).  The planning arms chain iff it holds
  /// more than one entry; otherwise every planned solve seeds from WCS.
  std::vector<double> sigma_chain;
  /// Charged by the simulator per voltage change; zero matches the paper's
  /// "transition overhead is negligible" assumption (ablation bench knob).
  model::TransitionOverhead transition;
  /// Execution-time process the simulation draws from: a fresh sampler is
  /// built per context evaluation via MakeSampler(set, sigma_divisor).  Null keeps
  /// the paper's i.i.d. truncated normal (bit-identical to the
  /// pre-scenario pipeline).  Non-owning — typically a
  /// workload::ScenarioRegistry entry that outlives the run; mp's per-core
  /// fan-out copies these options, so the pointee must outlive the whole
  /// fleet evaluation.
  const model::WorkloadScenario* scenario = nullptr;
  /// Registry name of `scenario` — the identity the persistent solve cache
  /// stores for calibrations, since pointer identity cannot survive a
  /// process boundary (runner::RunCell fills it from the grid's scenario
  /// axis).  Empty disables calibration persistence for this evaluation;
  /// results are identical either way.
  std::string scenario_key;
  /// Scenario-conditioned planning knobs (see PlanningOptions).
  PlanningOptions planning;
  /// Online expected-case dispatch + drift replanning knobs.
  OnlineOptions online;
  /// Leakage-aware DPM layer (dpm/options.h): sleep states across
  /// break-even idle intervals, the critical-speed floor (applied by
  /// runner::RunGrid via dpm::FlooredModel), cross-hyper-period
  /// reallocation.
  /// Disabled by default; every consumer's DPM-off path is byte-identical
  /// to the pre-DPM pipeline.
  dpm::Options dpm;
};

/// The calibration stream of one evaluation: a fixed-label fork of the
/// cell's workload seed.  Deriving from `options.seed` pairs calibration
/// with the cell it plans for (runner cells key that seed by SetIndex, and
/// mp::EvaluateFleet forks it per core, so per-core calibration pairs with
/// per-core evaluation); the distinct label keeps calibration draws
/// statistically independent of the evaluation realisations.
std::uint64_t CalibrationSeed(const ExperimentOptions& options);

struct MethodOutcome {
  double predicted_energy = 0.0;      // NLP objective (per hyper-period)
  double measured_energy = 0.0;       // simulated energy per hyper-period
  std::int64_t deadline_misses = 0;
  std::int64_t voltage_switches = 0;  // across the whole simulated run
  bool used_fallback = false;         // scheduler kept its warm start
  /// Offline solver effort behind the plan (the NLP arms' AlmReport; zero
  /// for closed-form methods).  Multi-core cells sum per-core solves; a
  /// warm-start chain charges every solve the chain actually ran.  Surfaced
  /// by runner::CsvSink's opt-in solver-stats columns.
  std::int64_t solver_outer_iterations = 0;
  std::int64_t solver_inner_iterations = 0;
  std::int64_t solver_evaluations = 0;
  std::int64_t solver_inner_capped = 0;
  double solver_max_violation = 0.0;  // largest final violation of a solve
  /// DPM ledger (all zero when ExperimentOptions::dpm is off).  The two
  /// energies are included in measured_energy; units follow it (per
  /// hyper-period single-core, per-ms for a fleet aggregate).
  double idle_energy = 0.0;   // awake floor paid across the run
  double sleep_energy = 0.0;  // sleep transitions + residency
  double sleep_time = 0.0;    // ms spent in committed sleeps
  std::int64_t sleeps = 0;    // committed sleep transitions
  /// Fleet-only DPM fields (zero on single-core outcomes): tasks migrated by
  /// the cross-hyper-period reallocation (identical across a cell's methods)
  /// and the time-weighted powered-core count — cores that the reallocation
  /// emptied or that slept part of the mission count fractionally.
  std::int64_t migrations = 0;
  double weighted_cores = 0.0;
};

/// The result-charged telemetry of one core::EvaluateMethods call: workload
/// draws made on a real sampler and replayed from the shared realisation,
/// expected-case DP dispatches and drift replans.  Each is a pure function
/// of the evaluation's inputs, so a memoised evaluation (mp::EvaluateFleet's
/// per-core missions, DESIGN.md §8) re-charges exactly what running it
/// charged, and every aggregate stays a pure function of the grid.
struct EvaluationCounters {
  std::int64_t sampler_draws = 0;   // sim.sampler_draws
  std::int64_t replayed_draws = 0;  // sim.replayed_draws
  std::int64_t dp_dispatches = 0;   // online.dp_dispatches
  std::int64_t drift_replans = 0;   // drift.replans

  EvaluationCounters& operator+=(const EvaluationCounters& other);
  /// Adds the counts to the calling thread's metrics shard (a no-op when
  /// none is installed).
  void Charge() const;
};

/// The paper's reported metric, shared by every result type that compares a
/// method against a baseline: (E_base - E_method) / E_base.  Degenerate
/// inputs stay honest instead of reading as "no improvement": a non-finite
/// energy propagates NaN, a zero baseline reports signed infinity toward
/// the method's sign (and 0 only when the method is also free).  CSV/JSON
/// sinks render the non-finite cases as empty/null fields.
inline double ImprovementRatio(double baseline_energy, double method_energy) {
  if (!std::isfinite(baseline_energy) || !std::isfinite(method_energy)) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  if (baseline_energy == 0.0) {
    if (method_energy == 0.0) {
      return 0.0;
    }
    return method_energy > 0.0 ? -std::numeric_limits<double>::infinity()
                               : std::numeric_limits<double>::infinity();
  }
  return (baseline_energy - method_energy) / baseline_energy;
}

struct ComparisonResult {
  MethodOutcome acs;
  MethodOutcome wcs;
  std::size_t sub_instances = 0;

  /// The paper's reported metric: (E_wcs - E_acs) / E_wcs on measured
  /// runtime energy (ImprovementRatio's degenerate-input contract applies).
  double Improvement() const {
    return ImprovementRatio(wcs.measured_energy, acs.measured_energy);
  }
};

/// Builds the fresh per-run sampler one evaluation simulates under:
/// `options.scenario`'s process, or the paper's i.i.d. truncated normal
/// when unset (the byte-compatible default).  Owning — one sampler serves
/// one simulation run (the statefulness contract of model/workload.h);
/// the single resolution point for everything that consumes
/// ExperimentOptions (EvaluateMethods).
std::unique_ptr<model::WorkloadSampler> MakeRunSampler(
    const ExperimentOptions& options, const model::TaskSet& set);

/// Runs the full ACS-vs-WCS comparison.  Both schedules are simulated over
/// the *same* workload realisations (identical seeded streams), mirroring
/// the paper's methodology.  Throws InfeasibleError when the set is not
/// RM-schedulable at Vmax.
ComparisonResult CompareAcsWcs(const model::TaskSet& set,
                               const model::DvsModel& dvs,
                               const ExperimentOptions& options = {});

}  // namespace dvs::core

#endif  // ACS_CORE_PIPELINE_H
