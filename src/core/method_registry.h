// Named scheduling methods and the registry that makes them selectable.
//
// A ScheduleMethod bundles the two halves of one experiment arm:
//
//   offline — construct a feasible StaticSchedule for the task set (solve
//             the ACS NLP, solve the WCS baseline, or build a closed-form
//             schedule such as Vmax-ASAP);
//   online  — the sim::AnyPolicy the engine dispatches through.
//
// The registry decouples experiment drivers (core::CompareAcsWcs, the
// runner subsystem, the benches) from the concrete strategy list: a new
// baseline is one Register() call, and experiment grids select methods by
// name.  Built-ins (see MethodRegistry::Builtin):
//
//   acs            ACS full-NLP schedule + greedy online reclamation
//                  (the paper's scheme)
//   wcs            WCS schedule + greedy online reclamation (the paper's
//                  comparison baseline)
//   wcs-static     WCS schedule, offline voltages only — isolates the
//                  static end-times from the online slack pass-through
//   greedy-reclaim Vmax-ASAP schedule + greedy reclamation — pure online
//                  slack reclamation with no offline optimisation
//   static-vmax    Vmax-ASAP schedule at Vmax throughout — the no-DVS
//                  energy ceiling
//   acs-scenario   ACS NLP planned at the scenario's calibrated per-task
//                  realised mean instead of the ACEC point
//   acs-mixture    ACS NLP whose objective averages the energy replay over
//                  K calibrated sample vectors (distribution-weighted plan)
//   acs-online     calibrated-mean planned schedule + expected-case online
//                  DP dispatch (sim::ExpectedCasePolicy) over the
//                  calibrated remaining-work distribution
//   acs-online-drift  acs-online plus an EWMA drift detector that
//                  recalibrates the planning point mid-run and replans
//                  through the warm-start machinery (MethodPlan::DriftSpec)
//
// The scenario-conditioned arms calibrate the cell's scenario offline
// (workload::ScenarioCalibrator, seeded by core::CalibrationSeed) and solve
// through SolvePlanned; they require experiment options on the context —
// EvaluateMethod attaches them automatically, direct Plan() callers use
// MethodContext::AttachExperiment first.
#ifndef ACS_CORE_METHOD_REGISTRY_H
#define ACS_CORE_METHOD_REGISTRY_H

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "core/scheduler.h"
#include "fps/expansion.h"
#include "model/power_model.h"
#include "sim/policy.h"
#include "sim/static_schedule.h"
#include "util/named_registry.h"
#include "workload/calibrator.h"

namespace dvs::core {

class EvalWorkspace;  // core/eval_workspace.h

/// Per-task-set solve state shared by every method evaluated on one cell.
/// The WCS solution doubles as the ACS warm start and as its own arm, and
/// the Vmax-ASAP schedule seeds two baselines, so both are solved lazily
/// once and cached in a SolveCache (core/scheduler.h) — the context's own
/// by default, or an external one whose lifetime exceeds the context (the
/// workspace-backed constructor, which lets runner::RunGrid share solves
/// across cells drawing the same task set).  Not thread-safe: parallel
/// experiment drivers use one MethodContext per cell (see runner::RunGrid).
class MethodContext {
 public:
  MethodContext(const fps::FullyPreemptiveSchedule& fps,
                const model::DvsModel& dvs, const SchedulerOptions& scheduler)
      : fps_(&fps), dvs_(&dvs), scheduler_(&scheduler), cache_(&own_cache_) {}

  /// Workspace-backed variant: solves run out of `workspace`'s scratch
  /// buffers, simulations reuse its engine buffers, and results are cached
  /// in `cache` (typically the workspace's PreparedCell, so later contexts
  /// on the same task set skip the solves entirely).  Bit-identical to the
  /// self-contained constructor.
  MethodContext(const fps::FullyPreemptiveSchedule& fps,
                const model::DvsModel& dvs, const SchedulerOptions& scheduler,
                EvalWorkspace& workspace, SolveCache& cache)
      : fps_(&fps),
        dvs_(&dvs),
        scheduler_(&scheduler),
        workspace_(&workspace),
        cache_(&cache) {}

  // The default cache is a member the context points at, so copies would
  // dangle; contexts are cheap to construct where needed instead.
  MethodContext(const MethodContext&) = delete;
  MethodContext& operator=(const MethodContext&) = delete;

  const fps::FullyPreemptiveSchedule& fps() const { return *fps_; }
  const model::DvsModel& dvs() const { return *dvs_; }
  const SchedulerOptions& scheduler() const { return *scheduler_; }

  /// The attached workspace, or nullptr for a self-contained context.
  EvalWorkspace* workspace() const { return workspace_; }

  /// Attaches the experiment options the scenario-conditioned arms read
  /// (scenario, sigma divisor, seed, planning knobs).  EvaluateMethod does
  /// this on entry; only direct Plan() callers need to call it themselves.
  /// Non-owning — the options must outlive the planning calls.
  void AttachExperiment(const ExperimentOptions& options) {
    experiment_ = &options;
  }

  /// The attached experiment options, or nullptr before AttachExperiment.
  const ExperimentOptions* experiment() const { return experiment_; }

  /// Solves (once) and returns the WCS schedule.
  const ScheduleResult& Wcs();

  /// Solves (once) and returns the ACS schedule, warm-started per the
  /// scheduler options.  Shared by the "acs" arm and its policy variants
  /// (e.g. the eager-dispatch ablation), so the NLP solve amortises.
  const ScheduleResult& Acs();

  /// Builds (once) and returns the Vmax-ASAP schedule.  Throws
  /// InfeasibleError when the set is not RM-schedulable at Vmax.
  const sim::StaticSchedule& VmaxAsap();

  /// Calibrates (once per distinct configuration) the context's task set
  /// under `options`' scenario, sigma divisor, calibration sample count
  /// and CalibrationSeed-derived stream.  Calibrations are cached in the
  /// SolveCache (task-set scope), so the three planning arms of one cell,
  /// sigma-axis sibling cells sharing the cache, and warm-start chain
  /// prefixes all share one calibration run instead of re-sampling the
  /// scenario.  The returned reference stays valid for the cache's
  /// lifetime.
  const workload::Calibration& ScenarioCalibration(
      const ExperimentOptions& options);

  /// Solves (once per distinct point) and returns the scenario-conditioned
  /// schedule for `planning`, warm-started like Acs().  Solves are cached
  /// in the SolveCache keyed by the point's exact values — never by the
  /// arm or scenario name alone — so cells sharing a cache but differing
  /// in scenario, arm or planning knobs can never reuse each other's
  /// solve, while cells whose calibrations coincide exactly may (which is
  /// sound: the solve is a pure function of the point).  The returned
  /// reference stays valid for the cache's lifetime.
  const ScheduleResult& Planned(const PlanningPoint& planning);

  /// Continuation variant (WarmStartPolicy::kNeighbor): solves `planning`
  /// seeded from `warm` — the previous chain link's converged result.  Its
  /// schedule seeds the primal and its AlmReport multipliers/penalty seed
  /// the dual (opt::AlmOptions::dual_seed), so the link polishes instead of
  /// re-running the cold tolerance ramp.  Null seeds from WCS exactly like
  /// Planned.  `chain` is the warm-start ancestry — the planning points
  /// whose solves produced `warm`, in solve order — and is part of the
  /// cache identity, so chained and unchained solves of the same point
  /// never alias (see SolveCache::PlannedSolve).
  const ScheduleResult& PlannedChained(const PlanningPoint& planning,
                                       const std::vector<PlanningPoint>& chain,
                                       const ScheduleResult* warm);

 private:
  const fps::FullyPreemptiveSchedule* fps_;
  const model::DvsModel* dvs_;
  const SchedulerOptions* scheduler_;
  EvalWorkspace* workspace_ = nullptr;
  const ExperimentOptions* experiment_ = nullptr;
  SolveCache* cache_;
  SolveCache own_cache_;
};

/// The offline product of one method: a feasible static schedule plus the
/// policy that dispatches it online, held by value (sim::AnyPolicy — the
/// engine dispatches it without virtual calls).
struct MethodPlan {
  sim::StaticSchedule schedule;
  sim::AnyPolicy policy;
  double predicted_energy = 0.0;  // the method's own offline estimate
  bool used_fallback = false;     // an NLP repair fell back to its warm start

  /// Mid-run drift adaptation request (the acs-online-drift arm).  When set,
  /// EvaluateMethod simulates hyper-period by hyper-period, folds each
  /// batch's realised per-task mean cycles into an EWMA, and — when the
  /// EWMA strays from the planned point by more than the configured
  /// threshold (relative to the task's [BCEC, WCEC] span) — recalibrates
  /// the PlanningPoint at the EWMA and replans through PlannedChained
  /// seeded from the incumbent solve, so replans cost warm-link prices.
  /// All referenced objects live in the context's SolveCache and outlive
  /// the plan.
  struct DriftSpec {
    /// Baseline calibration the policy's survival tables were built from.
    const workload::Calibration* calibration = nullptr;
    /// The incumbent solve (dual/primal seed of the first replan).
    const ScheduleResult* base = nullptr;
    /// Warm-start ancestry of `base`, including its own planning point —
    /// exactly the `chain` a replan passes to PlannedChained.
    std::vector<PlanningPoint> ancestry;
  };
  std::optional<DriftSpec> drift{};
  /// Offline solver effort behind this plan: zero for closed-form methods,
  /// one AlmReport's counters for a single NLP solve, the sum over every
  /// link of a warm-start chain.  Charged from the (possibly cached)
  /// ScheduleResult reports — a report is a pure function of the solve
  /// inputs, so the charge is identical whether this cell ran the solve or
  /// a cache served it, keeping the CSV columns deterministic at any
  /// thread count.
  std::int64_t solver_outer_iterations = 0;
  std::int64_t solver_inner_iterations = 0;
  std::int64_t solver_evaluations = 0;
  std::int64_t solver_inner_capped = 0;  // solves ending on the inner cap

  /// Adds one solve's counters.
  void ChargeSolver(const opt::AlmReport& report) {
    solver_outer_iterations += static_cast<std::int64_t>(report.outer_iterations);
    solver_inner_iterations +=
        static_cast<std::int64_t>(report.total_inner_iterations);
    solver_evaluations += static_cast<std::int64_t>(report.evaluations);
    solver_inner_capped +=
        report.inner_status == opt::SolveStatus::kMaxIterations ? 1 : 0;
  }
};

/// One named strategy.  Implementations are stateless and const, so a single
/// instance may be shared across threads; all per-cell state lives in the
/// MethodContext.
class ScheduleMethod {
 public:
  virtual ~ScheduleMethod() = default;
  virtual MethodPlan Plan(MethodContext& context) const = 0;
};

/// Name -> strategy map: util::NamedRegistry with this domain's error
/// wording.  Lookups on a fully-built registry are const and safe to share
/// across threads; Register() is not (populate before use).
class MethodRegistry : public util::NamedRegistry<ScheduleMethod> {
 public:
  /// The immutable registry of built-in methods listed above.
  static const MethodRegistry& Builtin();

  MethodRegistry() : NamedRegistry("method", "schedule method", "methods") {}
};

/// Populates `registry` with the built-in methods of MethodRegistry::Builtin.
/// Benches that add custom arms (discrete-voltage variants, the full-NLP
/// solver, policy counterfactuals) start from this and Register() on top.
void RegisterBuiltins(MethodRegistry& registry);

/// Plans and simulates each of `methods` in order under the experiment's
/// workload scenario (the paper's truncated normal by default); returns one
/// outcome per method.  Every arm faces the identical workload realisation
/// — the paper's methodology for fair comparisons — and it is drawn once:
/// the first non-drift arm records its sampler draws and later non-drift
/// arms replay them (model::ReplaySampler), bit-identical to giving each
/// arm a fresh sampler on `options.seed` because the engine draws once per
/// release in global release order whatever the policy does.  Drift arms
/// (MethodPlan::drift) draw from their own fresh sampler.  Planning reads
/// `context.scheduler()` exclusively; `options.scheduler` is not consulted
/// here, so construct the context from the same options.
std::vector<MethodOutcome> EvaluateMethods(
    const std::vector<const ScheduleMethod*>& methods, MethodContext& context,
    const ExperimentOptions& options);

/// EvaluateMethods for one method.
MethodOutcome EvaluateMethod(const ScheduleMethod& method,
                             MethodContext& context,
                             const ExperimentOptions& options);

}  // namespace dvs::core

#endif  // ACS_CORE_METHOD_REGISTRY_H
