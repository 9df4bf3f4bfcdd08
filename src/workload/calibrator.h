// Offline scenario calibration: deterministic Monte-Carlo estimation of the
// per-task realised execution-time distribution of one workload scenario.
//
// The ACS NLP plans at a single per-task workload point; the paper fixes it
// at ACEC, the mean of its i.i.d. truncated normal.  For any other
// execution-time process (workload/scenario.h) the realised per-task mean —
// and the shape around it — drifts away from ACEC, so scenario-conditioned
// planning arms (core "acs-scenario" / "acs-mixture" / "acs-online") need
// calibrated per-task moments, sorted draws and representative sample
// vectors.
// ScenarioCalibrator produces them by sampling the scenario offline:
//
//   - one sampler *per task*, each queried for that task only, so stateful
//     processes (Markov phases, AR(1) memory, trace cursors) expose their
//     per-task marginal law without cross-task stream coupling;
//   - one independent rng stream per task, derived as
//     Rng(seed).ForkWith(task) — a pure function of (seed, task), so a
//     task's draws never depend on the other tasks of the set;
//   - every draw clamped to the task's [BCEC, WCEC] window (the sampler
//     contract already guarantees it; the clamp makes the planning-point
//     invariant locally checkable).
//
// Determinism contract: Calibrate(set, seed) is a pure function of
// (scenario, sigma_divisor, samples_per_task, set, seed) — same inputs,
// bit-identical Calibration, whatever the call order.
// Experiment drivers derive `seed` from the same SetIndex-keyed stream that
// seeds evaluation (core::CalibrationSeed), so calibration is paired with
// the cell it plans for while drawing from an independent fork.
#ifndef ACS_WORKLOAD_CALIBRATOR_H
#define ACS_WORKLOAD_CALIBRATOR_H

#include <cstdint>
#include <vector>

#include "model/task.h"
#include "model/workload.h"

namespace dvs::workload {

/// The calibrated per-task picture of one (scenario, sigma_divisor, set,
/// seed) tuple.  Per-task vectors are indexed by model::TaskIndex.
struct Calibration {
  std::int64_t samples_per_task = 0;
  std::vector<double> mean;    // empirical mean of the realised cycles
  std::vector<double> stddev;  // empirical standard deviation
  /// Per-task draws in draw order (row = task) — the raw material of
  /// SampleVectors, kept so mixture vectors reflect actual joint draws of
  /// one draw index rather than artificial comonotone quantile stacks.
  std::vector<std::vector<double>> draws;
  /// Per-task draws sorted ascending — the survival law the expected-case
  /// dispatch (sim::ExpectedCasePolicy) reads.
  std::vector<std::vector<double>> sorted;

  /// Rebuilds `sorted` from `draws`: each row copied and sorted ascending.
  /// ScenarioCalibrator::Calibrate fills `sorted` this way, and a
  /// calibration restored from the persistent solve store (which keeps
  /// `draws` only) rebuilds it here, bit for bit.
  void SortDraws();

  /// `k` per-task sample vectors spread evenly through the draw order:
  /// vector j holds every task's draw at index (2j+1) * N / (2k).  Each
  /// vector is one joint draw across tasks, so mixture planning averages
  /// over realisations the scenario actually produces.  Requires
  /// 1 <= k <= samples_per_task.
  std::vector<std::vector<double>> SampleVectors(std::int64_t k) const;
};

/// Calibration knobs (top-level so the constructor can default it; nested
/// classes cannot default-argument their own enclosing scope).
struct CalibratorOptions {
  /// Draws per task.  2048 puts the standard error of a mean estimate at
  /// ~2% of the dispersion — well inside the NLP's sensitivity — while
  /// keeping calibration orders of magnitude cheaper than one solve.
  std::int64_t samples_per_task = 2048;
};

class ScenarioCalibrator {
 public:
  /// `scenario` may be null: calibration then targets the paper's default
  /// i.i.d. truncated normal (the same resolution rule as
  /// core::MakeRunSampler), so planning arms behave identically whether the
  /// default process is spelled "nullptr" or "iid-normal".  Non-owning; the
  /// pointee must outlive the calibrator.
  ScenarioCalibrator(const model::WorkloadScenario* scenario,
                     double sigma_divisor, const CalibratorOptions& options = {});

  /// Pure function of (scenario, sigma_divisor, options, set, seed); see
  /// the determinism contract above.
  Calibration Calibrate(const model::TaskSet& set, std::uint64_t seed) const;

 private:
  const model::WorkloadScenario* scenario_;
  double sigma_divisor_;
  CalibratorOptions options_;
};

}  // namespace dvs::workload

#endif  // ACS_WORKLOAD_CALIBRATOR_H
