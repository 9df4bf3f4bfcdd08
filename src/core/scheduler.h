// Offline schedulers: ACS (the paper's contribution) and the WCS baseline.
//
// Both run the same pipeline — fully preemptive expansion -> NLP solve ->
// feasibility repair — differing only in the scenario the objective replays
// (ACEC vs WCEC).  WCS solves its convex lift exactly (opt/chain_ipm.h);
// ACS and point-planned solves solve theirs to a KKT residual
// (opt/replay_newton.h); mixtures and every fallback run the
// augmented-Lagrangian solve of the reduced NLP.  The repair pass converts
// the solver's epsilon-feasible iterate into a *strictly* feasible static
// schedule (exact budget simplexes, chain-respecting end-times); if repair
// cannot absorb the residual violation the scheduler falls back to its warm
// start, which is feasible by construction, and flags it in the result.
#ifndef ACS_CORE_SCHEDULER_H
#define ACS_CORE_SCHEDULER_H

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/formulation.h"
#include "fps/expansion.h"
#include "model/power_model.h"
#include "opt/augmented_lagrangian.h"
#include "sim/static_schedule.h"
#include "workload/calibrator.h"

namespace dvs::core {

class EvalWorkspace;  // core/eval_workspace.h

/// Has no settings: every solve runs AcsAlmOptions().  The type stays only
/// for the benchmark-facing signatures that still take it
/// (MethodContext's three-argument constructor, the three-argument
/// SolveStore::Load and runner::ExperimentGrid::scheduler).
struct SchedulerOptions {};

/// The one ALM configuration of every ACS / WCS / planned solve: 14 outer
/// iterations at feasibility tolerance 1e-8, initial penalty 10 growing
/// tenfold, 700 inner SPG iterations tightening from 1e-4 to 1e-7, every
/// other field at its opt::AlmOptions default.  These values are part of
/// the solve identity through core::kSolveStoreSchemaVersion: changing any
/// of them needs a schema bump.
opt::AlmOptions AcsAlmOptions();

/// Duality-gap certificate of an exact WCS solve (opt/chain_ipm.h): the
/// explicit-start program's objective at the returned point and a rigorous
/// lower bound on its optimum, which equals the reduced WCS optimum
/// (DESIGN.md §2.2).
struct GapCertificate {
  double primal = 0.0;
  double dual = 0.0;
  double relative_gap = 0.0;  // (primal - dual) / primal
};

struct ScheduleResult {
  sim::StaticSchedule schedule;
  double predicted_energy = 0.0;  // scenario energy of the final schedule
  opt::AlmReport alm;             // solver work (the chain IPM's for exact WCS)
  bool used_fallback = false;     // repair failed; warm start returned
  /// Set by exact WCS solves; empty for ALM solves.
  std::optional<GapCertificate> certificate = std::nullopt;
};

/// Lazily solved per-task-set state shared by every method evaluated on one
/// task set: the WCS solution doubles as the ACS warm start and as its own
/// arm, and the Vmax-ASAP schedule seeds two baselines.  MethodContext owns
/// one per cell by default; core::EvalWorkspace keeps one per *task set* so
/// grid cells that share a set reuse the solves outright.
///
/// The wcs / acs / vmax_asap slots are *planning-invariant*: they depend on
/// the task set and model alone (plain ACS plans at the ACEC point whatever
/// the cell's scenario), so sharing them across scenario / planning-arm
/// cells is sound.  Scenario-conditioned solves are
/// NOT — their schedule is a function of the calibrated PlanningPoint — so
/// they live in `planned`, keyed by the point's exact values: two cells
/// sharing a SetIndex but differing in scenario, planning arm, sigma or
/// calibration seed produce different points and therefore
/// different keys, which is the cache-hazard guarantee the planning
/// regression test pins down (a colliding fingerprint still verifies the
/// full point before reuse, degrading to a re-solve).
struct SolveCache {
  std::optional<ScheduleResult> wcs;
  std::optional<ScheduleResult> acs;
  std::optional<sim::StaticSchedule> vmax_asap;

  /// One scenario-conditioned solve; unique_ptr for reference stability
  /// (MethodContext::Planned returns references that must survive later
  /// insertions).  `chain` records the warm-start ancestry of a
  /// continuation solve (the planning points whose schedules seeded this
  /// one, in solve order) — empty for the legacy WCS-seeded path.  A hit
  /// requires the ancestry to match exactly as well as the point, so a
  /// chained and an unchained solve of the same point can never alias (the
  /// solver trajectory, and therefore the schedule, depends on the seed).
  struct PlannedSolve {
    PlannedSolve(std::uint64_t key, PlanningPoint planning,
                 std::vector<PlanningPoint> chain, ScheduleResult result)
        : key(key),
          planning(std::move(planning)),
          chain(std::move(chain)),
          result(std::move(result)) {}

    std::uint64_t key;       // PlanningPoint::Fingerprint()
    PlanningPoint planning;  // exact-value verification on hit
    std::vector<PlanningPoint> chain;  // warm-start ancestry (may be empty)
    ScheduleResult result;
  };
  std::vector<std::unique_ptr<PlannedSolve>> planned;

  /// One scenario calibration, cached at task-set scope so sigma-axis
  /// siblings and warm-start chain prefixes share the sampling work.
  /// Keyed like MethodContext's old single-slot memo: scenario by identity
  /// (registry entries outlive the run), sigma divisor, the
  /// CalibrationSeed-derived stream and the sample count.  unique_ptr for
  /// reference stability across later insertions.
  /// An entry matches a lookup when the pointer identity AND the persist
  /// key agree — or, for entries restored from the persistent solve cache
  /// (core/solve_store.h), when the pointer is null and the non-empty
  /// persist key matches the lookup's scenario_key.  The two-sided rule
  /// keeps the legacy direct-API behaviour (null scenario, empty keys)
  /// intact while preventing a restored calibration of one named scenario
  /// from ever serving a caller that supplied no scenario name.
  struct CalibrationEntry {
    const model::WorkloadScenario* scenario;
    double sigma_divisor;
    std::uint64_t seed;
    std::int64_t samples;
    workload::Calibration calibration;
    /// Registry name of the scenario (ExperimentOptions::scenario_key) —
    /// the identity that survives serialization.  Empty for direct-API
    /// callers; such entries are never persisted.
    std::string persist_key;
  };
  std::vector<std::unique_ptr<CalibrationEntry>> calibrations;
};

/// Solves for one scenario with the ALM (the reference and fallback of the
/// converged solves).  `warm_start` must be worst-case feasible; when
/// absent the Vmax-ASAP schedule is used.  Throws InfeasibleError when the
/// task set is not RM-schedulable at Vmax.  `workspace` (optional) supplies
/// reusable solver/objective scratch — bit-identical results either way.
ScheduleResult SolveSchedule(
    const fps::FullyPreemptiveSchedule& fps, const model::DvsModel& dvs,
    Scenario scenario,
    const std::optional<sim::StaticSchedule>& warm_start = std::nullopt,
    EvalWorkspace* workspace = nullptr);

/// WCS: the classical WCEC-only minimum-energy static schedule (paper §4's
/// comparison baseline), solved exactly by the structured interior-point
/// method (opt/chain_ipm.h) with a duality-gap certificate, kept even when
/// the gap stays above the solver's target (solve.wcs_gap shows it).  A
/// set the exact solve cannot solve or repair (counted by
/// solve.wcs_fallbacks) takes the ALM path, as does
/// SolveSchedule(Scenario::kWorst, ...) always.  Throws
/// InvalidArgumentError for a model core::PlanningModel rejects.
ScheduleResult SolveWcs(const fps::FullyPreemptiveSchedule& fps,
                        const model::DvsModel& dvs,
                        EvalWorkspace* workspace = nullptr);

/// ACS: the paper's average-case-aware schedule, warm-started from SolveWcs
/// and solved to its KKT residual on the lifted start-chain program
/// (opt/replay_newton.h, DESIGN.md §2.4).  A solve that does not converge,
/// fails repair or ends worse than its warm start is counted by
/// solve.acs_fallbacks and re-solved by the ALM.
ScheduleResult SolveAcs(const fps::FullyPreemptiveSchedule& fps,
                        const model::DvsModel& dvs,
                        EvalWorkspace* workspace = nullptr);

/// SolveAcs from a given worst-case feasible warm start.
ScheduleResult SolveAcsFrom(const fps::FullyPreemptiveSchedule& fps,
                            const model::DvsModel& dvs,
                            const sim::StaticSchedule& warm_start,
                            EvalWorkspace* workspace = nullptr);

/// Scenario-conditioned ACS: the average-scenario pipeline with the NLP
/// objective replaying at `planning` instead of the ACEC point (calibrated
/// mean or the K-vector mixture expectation — see
/// core::PlanningPoint and workload/calibrator.h).  A single point is
/// solved like SolveAcsFrom (an IsAcec() point gives its result exactly);
/// a mixture is solved by the ALM.
///
/// `dual_seed` (optional) is the AlmReport of a previous solve of the SAME
/// task set at a nearby planning point — a warm-start chain neighbor.  An
/// ALM solve continues its multipliers and final penalty
/// (opt::AlmOptions::dual_seed); the converged solve does not use it.
ScheduleResult SolvePlanned(
    const fps::FullyPreemptiveSchedule& fps, const model::DvsModel& dvs,
    const PlanningPoint& planning,
    const std::optional<sim::StaticSchedule>& warm_start = std::nullopt,
    EvalWorkspace* workspace = nullptr,
    const opt::AlmReport* dual_seed = nullptr);

/// Repairs an epsilon-feasible (end-times, budgets) pair into a strictly
/// feasible StaticSchedule: exact per-instance budget simplex projection,
/// then a forward sweep that pushes capacity overflow to later sub-instances
/// of the same instance and lifts end-times onto the worst-case chain.
/// Returns std::nullopt when the overflow cannot be absorbed.
std::optional<sim::StaticSchedule> RepairSchedule(
    const fps::FullyPreemptiveSchedule& fps, const model::DvsModel& dvs,
    const std::vector<double>& end_times, const std::vector<double>& budgets);

}  // namespace dvs::core

#endif  // ACS_CORE_SCHEDULER_H
