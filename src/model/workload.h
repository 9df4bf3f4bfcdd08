// Per-instance actual-workload sampling (paper §4 experimental model).
//
// "the number of execution cycles of each task [varies] between the best
// case (BCEC) and worst case (WCEC) following a normal distribution with
// mean = ACEC".  The sigma constant is lost to OCR; we default to the
// 3-sigma convention sigma = (WCEC - BCEC) / 6 and expose it as a knob
// (see bench_ablation_sigma).
#ifndef ACS_MODEL_WORKLOAD_H
#define ACS_MODEL_WORKLOAD_H

#include <memory>
#include <optional>
#include <vector>

#include "model/task.h"
#include "stats/distributions.h"
#include "stats/rng.h"

namespace dvs::model {

/// Interface: draws the actual execution cycles of one task instance.
///
/// Statefulness contract: implementations may evolve internal per-task state
/// across draws (Markov phases, AR(1) memory, trace cursors — see
/// workload/scenario.h), held in mutable members behind this const call.
/// A sampler therefore serves exactly one simulation run at a time: the
/// engine draws in release order from a single rng stream, and a fresh
/// sampler per run keeps results a pure function of (task set, scenario,
/// seed).  core::EvaluateMethods builds one per context and shares its
/// draws with every arm through RecordingSampler / ReplaySampler.  Sharing
/// one sampler across concurrent simulations is not supported.
class WorkloadSampler {
 public:
  virtual ~WorkloadSampler() = default;

  /// Cycles for the next instance of task `task`; must lie within
  /// [BCEC, WCEC] of that task.
  virtual double SampleCycles(TaskIndex task, stats::Rng& rng) const = 0;
};

/// One draw of a recorded workload realisation.
struct RecordedDraw {
  TaskIndex task = 0;
  double cycles = 0.0;
};

/// Forwards every draw to `inner` and appends (task, cycles) to `record`.
/// The engine draws once per release in global release order whatever the
/// policy does, so one recorded run is the realisation every other policy
/// would draw from the same sampler and seed (core::EvaluateMethods).
class RecordingSampler final : public WorkloadSampler {
 public:
  RecordingSampler(const WorkloadSampler& inner,
                   std::vector<RecordedDraw>& record)
      : inner_(&inner), record_(&record) {}

  double SampleCycles(TaskIndex task, stats::Rng& rng) const override;

 private:
  const WorkloadSampler* inner_;
  std::vector<RecordedDraw>* record_;
};

/// Replays a recorded realisation in draw order; the rng is not touched.
/// Every draw must ask for the recorded task, and CheckFullyUsed() fails
/// unless every recorded draw was replayed: both throw InternalError, so a
/// run that does not retrace the recorded release sequence cannot pass.
class ReplaySampler final : public WorkloadSampler {
 public:
  explicit ReplaySampler(const std::vector<RecordedDraw>& record)
      : record_(&record) {}

  double SampleCycles(TaskIndex task, stats::Rng& rng) const override;

  void CheckFullyUsed() const;

  /// Draws replayed so far.
  std::size_t used() const { return next_; }

 private:
  const std::vector<RecordedDraw>* record_;
  mutable std::size_t next_ = 0;
};

/// Factory for one named execution-time process ("scenario"): given a task
/// set, builds the fresh per-run sampler that realises the process on that
/// set's [BCEC, WCEC] windows.  The indirection is what lets the evaluation
/// core (core::EvaluateMethod, mp::EvaluateFleet) swap stochastic processes
/// per experiment cell without depending on the concrete implementations —
/// those live a layer up in workload::ScenarioRegistry.  `sigma_divisor` is
/// the grid's dispersion knob: the i.i.d. normal uses it exactly as the
/// paper does (sigma = span / divisor), other scenarios scale their own
/// widths from it and document how (see workload/scenario.h).
class WorkloadScenario {
 public:
  virtual ~WorkloadScenario() = default;

  virtual std::unique_ptr<WorkloadSampler> MakeSampler(
      const TaskSet& set, double sigma_divisor) const = 0;

  /// False when MakeSampler ignores sigma_divisor (the process has no
  /// dispersion knob — e.g. a fixed tail index or a deterministic replay):
  /// cells differing only in sigma then realise identically, and sweep
  /// drivers use this to skip the duplicates (see bench_scenario_sweep).
  virtual bool UsesSigmaDivisor() const { return true; }
};

/// The paper's truncated-normal workload.
class TruncatedNormalWorkload final : public WorkloadSampler {
 public:
  /// sigma_i = (WCEC_i - BCEC_i) / sigma_divisor.  Tasks with
  /// BCEC == WCEC degenerate to a point mass.
  TruncatedNormalWorkload(const TaskSet& set, double sigma_divisor = 6.0);

  double SampleCycles(TaskIndex task, stats::Rng& rng) const override;

  /// The analytic mean of task `i`'s truncated distribution (slightly
  /// different from ACEC whenever the window is asymmetric).
  double AnalyticMean(TaskIndex task) const;

 private:
  std::vector<std::optional<stats::TruncatedNormal>> dists_;
  std::vector<double> fixed_;  // used when the window collapses
};

/// Deterministic scenarios: every instance takes exactly BCEC / ACEC / WCEC.
/// The WCEC scenario is the adversarial run used to verify deadline
/// guarantees; the ACEC scenario matches the NLP's planning assumption.
enum class FixedScenario { kBest, kAverage, kWorst };

class FixedWorkload final : public WorkloadSampler {
 public:
  FixedWorkload(const TaskSet& set, FixedScenario scenario);

  double SampleCycles(TaskIndex task, stats::Rng& rng) const override;

 private:
  std::vector<double> cycles_;
};

/// Uniform on [BCEC, WCEC] — a heavier-tailed stress variant used by
/// property tests (not part of the paper's setup).
class UniformWorkload final : public WorkloadSampler {
 public:
  explicit UniformWorkload(const TaskSet& set);

  double SampleCycles(TaskIndex task, stats::Rng& rng) const override;

 private:
  std::vector<std::pair<double, double>> windows_;
};

}  // namespace dvs::model

#endif  // ACS_MODEL_WORKLOAD_H
