#include "core/scheduler.h"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <limits>
#include <vector>

#include "core/eval_workspace.h"
#include "obs/convergence.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "opt/chain_ipm.h"
#include "opt/replay_newton.h"
#include "sim/engine.h"
#include "util/error.h"
#include "util/logging.h"

namespace dvs::core {

opt::AlmOptions AcsAlmOptions() {
  opt::AlmOptions alm;
  alm.max_outer = 14;
  alm.feasibility_tol = 1e-8;
  alm.initial_penalty = 10.0;
  alm.penalty_growth = 10.0;
  alm.inner.max_iterations = 700;
  alm.inner.tolerance = 1e-7;
  alm.inner_tol_start = 1e-4;
  return alm;
}

std::optional<sim::StaticSchedule> RepairSchedule(
    const fps::FullyPreemptiveSchedule& fps, const model::DvsModel& dvs,
    const std::vector<double>& end_times, const std::vector<double>& budgets) {
  ACS_REQUIRE(end_times.size() == fps.sub_count(), "end-time size mismatch");
  ACS_REQUIRE(budgets.size() == fps.sub_count(), "budget size mismatch");
  const model::TaskSet& set = fps.task_set();
  const double ct_max = dvs.CycleTime(dvs.vmax());

  // Exact per-instance budget projection (>= 0, sum == WCEC).
  std::vector<double> w = budgets;
  for (const fps::InstanceRecord& rec : fps.instances()) {
    std::vector<double> group;
    group.reserve(rec.subs.size());
    for (std::size_t order : rec.subs) {
      group.push_back(std::max(0.0, w[order]));
    }
    opt::ProjectOntoSimplex(group, set.task(rec.info.task).wcec);
    for (std::size_t j = 0; j < rec.subs.size(); ++j) {
      w[rec.subs[j]] = group[j];
    }
  }

  // Forward sweep: honour the worst-case chain; overflow spills to the next
  // sub-instance of the same instance.  Returns the residual budget per
  // instance that fell past its deadline.
  std::vector<double> e(fps.sub_count(), 0.0);
  std::vector<double> pending(fps.instance_count(), 0.0);
  const std::vector<double>& end_cap = fps.effective_end_bounds();
  const auto sweep = [&]() {
    std::fill(pending.begin(), pending.end(), 0.0);
    double finish = 0.0;
    for (std::size_t u = 0; u < fps.sub_count(); ++u) {
      const fps::SubInstance& sub = fps.sub(u);
      const double start = std::max(finish, sub.release());
      double want = w[u] + pending[sub.parent];
      pending[sub.parent] = 0.0;
      const double capacity =
          std::max(0.0, (end_cap[u] - start) / ct_max);
      if (want > capacity) {
        pending[sub.parent] = want - capacity;
        want = capacity;
      }
      w[u] = want;
      const double chain_min = start + w[u] * ct_max;
      e[u] = std::clamp(std::max(end_times[u], chain_min), sub.seg_begin,
                        end_cap[u]);
      if (w[u] > 0.0) {
        finish = e[u];
      }
    }
  };

  // Residual budget below this is dropped: it represents less processor
  // time than any tolerance in the system (audits use 1e-6, the engine
  // resolves events to 1e-9), so it cannot affect schedulability.
  const double drop_cycles = 1e-7 / ct_max;

  sweep();
  bool leftover = false;
  for (std::size_t p = 0; p < fps.instance_count(); ++p) {
    if (pending[p] > drop_cycles) {
      // Residual that could not move later (capacity-tight tail, typically
      // solver dust).  Front-load it: the next sweep re-places it at the
      // earliest spare capacity of the instance instead.
      w[fps.instance(p).subs.front()] += pending[p];
      leftover = true;
    }
  }
  if (leftover) {
    sweep();
    for (std::size_t p = 0; p < fps.instance_count(); ++p) {
      if (pending[p] > drop_cycles) {
        ACS_LOG_DEBUG << "repair: instance " << p << " has " << pending[p]
                      << " cycles of budget past its deadline";
        return std::nullopt;
      }
    }
  }

  sim::StaticSchedule repaired(fps, std::move(e), std::move(w));
  const sim::FeasibilityReport audit = VerifyWorstCase(fps, repaired, dvs);
  if (!audit.feasible) {
    ACS_LOG_DEBUG << "repair audit failed: " << audit.detail;
    return std::nullopt;
  }
  return repaired;
}

namespace {

/// Charges repair.max_shift: how far RepairSchedule moved the solver's
/// end-times to make them exactly feasible.
void ObserveRepairShift(const sim::StaticSchedule& repaired,
                        const std::vector<double>& end_times) {
  double shift = 0.0;
  for (std::size_t u = 0; u < end_times.size(); ++u) {
    shift = std::max(shift, std::fabs(repaired.end_time(u) - end_times[u]));
  }
  obs::Observe(obs::metric::kRepairMaxShift, shift);
}

/// Largest set the converged solve serves.  Above it the solve stalls: on
/// default bench_fig6a_random (sets of 120-1000 sub-instances) 53 of 120
/// solves ended above the KKT tolerance or at the Newton-step guard and
/// fell back, which made the bench 3.3x slower than the ALM alone.  Every
/// sim-online set (20-60) and every grid-warm core (at most 120) is below.
constexpr std::size_t kReplayMaxSubInstances = 240;

/// The converged single-replay solve (DESIGN.md §2.4): the lifted
/// start-chain program at the ACEC point or at `planning`'s point, solved by
/// opt::SolveReplay from `start_schedule`, then the usual repair and audit.
/// Returns nullopt, counting the fallback by reason, when the solve does
/// not converge or its schedule does not survive repair; the caller then
/// solves with the ALM.  A result worse than the warm start returns the
/// warm start (counted, and flagged used_fallback like the ALM's guard).
std::optional<ScheduleResult> SolveReplayExact(
    const fps::FullyPreemptiveSchedule& fps, const model::LinearDvsModel& dvs,
    const PlanningPoint* planning, const sim::StaticSchedule& start_schedule,
    double start_energy, const EnergyObjective& objective,
    EvalWorkspace* workspace) {
  obs::Span span("replay_newton", "solve");
  const auto fall_back = [&span](const char* reason, obs::MetricId metric) {
    ACS_LOG_WARN << "converged ACS solve falls back to the ALM: " << reason;
    if (span.enabled()) {
      span.Arg("fallback", reason);
    }
    obs::Count(obs::metric::kAcsFallbacks);
    obs::Count(metric);
    return std::nullopt;
  };

  const model::TaskSet& set = fps.task_set();
  static const std::vector<double> kAcec;
  const std::vector<double>& cycles =
      planning != nullptr ? planning->cycles : kAcec;
  opt::ReplayProblem problem;
  const std::size_t n = fps.sub_count();
  problem.release.resize(n);
  problem.begin.resize(n);
  problem.cap = fps.effective_end_bounds();
  problem.group.resize(n);
  std::vector<double> warm_end(n);
  std::vector<double> warm_budget(n);
  for (std::size_t u = 0; u < n; ++u) {
    problem.release[u] = fps.sub(u).release();
    problem.begin[u] = fps.sub(u).seg_begin;
    problem.group[u] = fps.sub(u).parent;
    warm_end[u] = start_schedule.end_time(u);
    warm_budget[u] = start_schedule.worst_budget(u);
  }
  problem.group_total.resize(fps.instance_count());
  problem.group_plan.resize(fps.instance_count());
  for (std::size_t p = 0; p < fps.instance_count(); ++p) {
    const std::size_t task = fps.instance(p).info.task;
    problem.group_total[p] = set.task(task).wcec;
    problem.group_plan[p] = PlanningPoint::ResolveFor(cycles, set, task);
  }
  // speed = k V, so a cycles at speed q cost ceff (q / k)^2 a.
  problem.energy_coeff = dvs.ceff() / (dvs.k() * dvs.k());
  problem.min_speed = dvs.k() * dvs.vmin();
  problem.max_speed = dvs.k() * dvs.vmax();

  opt::ReplaySolution solution;
  const opt::ReplayNewtonReport report = opt::SolveReplay(
      problem, warm_end, warm_budget, solution,
      workspace != nullptr ? &workspace->solver().replay : nullptr);
  switch (report.status) {
    case opt::ReplayStatus::kSolved:
      break;
    case opt::ReplayStatus::kBreakdown:
      return fall_back("no usable Newton system",
                       obs::metric::kAcsFallbackBreakdown);
    case opt::ReplayStatus::kNoConvergence:
      return fall_back("KKT residual stalled",
                       obs::metric::kAcsFallbackNoConvergence);
  }
  std::optional<sim::StaticSchedule> repaired =
      RepairSchedule(fps, dvs, solution.end, solution.budget);
  if (!repaired.has_value()) {
    return fall_back("repair rejected the schedule",
                     obs::metric::kAcsFallbackRepair);
  }
  const double energy = objective.Value(objective.PackSchedule(*repaired));
  ScheduleResult result{std::move(*repaired), energy, {}, false};
  if (!(energy <= start_energy * (1.0 + opt::kKktTol))) {
    // A local optimum worse than the warm start (a converged neighbour's
    // schedule can be), beyond the solve's own tolerance: keep the warm
    // start, as the ALM path does.
    ACS_LOG_WARN << "converged ACS solve worse than its warm start; keeping "
                    "the warm start";
    obs::Count(obs::metric::kAcsFallbacks);
    obs::Count(obs::metric::kAcsFallbackWorse);
    result.schedule = start_schedule;
    result.predicted_energy = start_energy;
    result.used_fallback = true;
  } else {
    ObserveRepairShift(result.schedule, solution.end);
  }
  obs::Observe(obs::metric::kAcsKkt, report.kkt_residual);
  obs::Observe(obs::metric::kAcsNewtonSteps,
               static_cast<double>(report.newton_steps));
  obs::Observe(obs::metric::kAcsPatterns,
               static_cast<double>(report.patterns));
  if (span.enabled()) {
    span.Arg("patterns", static_cast<std::int64_t>(report.patterns));
    span.Arg("newton_steps", static_cast<std::int64_t>(report.newton_steps));
  }
  opt::AlmReport& work = result.alm;
  work.feasible = true;
  work.inner_status = opt::SolveStatus::kConverged;
  work.outer_iterations = report.patterns;
  work.total_inner_iterations = report.newton_steps;
  work.evaluations = report.newton_steps;
  work.final_value = result.predicted_energy;
  return result;
}

/// Shared solve body: `planning` is null for the paper's ACEC/WCEC solves
/// (exactly the historical construction, bit-for-bit) and a
/// scenario-conditioned point for SolvePlanned.
ScheduleResult SolveWith(
    const fps::FullyPreemptiveSchedule& fps, const model::DvsModel& dvs,
    Scenario scenario, const PlanningPoint* planning,
    const std::optional<sim::StaticSchedule>& warm_start,
    EvalWorkspace* workspace, bool converged,
    const opt::AlmReport* dual_seed = nullptr) {
  // Telemetry (observation-only: none of this feeds back into the solve).
  // The phase label keys the span, the solve counter and the convergence
  // records to the same taxonomy the --csv-solver-stats columns use.
  const char* const phase = planning != nullptr          ? "planned"
                            : scenario == Scenario::kWorst ? "wcs"
                                                           : "acs";
  obs::Count(planning != nullptr        ? obs::metric::kPlannedSolves
             : scenario == Scenario::kWorst ? obs::metric::kWcsSolves
                                            : obs::metric::kAcsSolves);
  obs::ScopedWallTimer solve_timer(obs::metric::kSolveWallUs);
  obs::Span span("alm", "solve");
  if (span.enabled()) {
    span.Arg("phase", phase);
    span.Arg("warm", warm_start.has_value() ? "seeded" : "cold");
    span.Arg("dual", dual_seed != nullptr ? "seeded" : "cold");
  }
  obs::ConvergenceScope convergence(phase);

  const sim::StaticSchedule start_schedule =
      warm_start.has_value() ? *warm_start
                             : sim::BuildVmaxAsapSchedule(fps, dvs);

  EnergyObjective objective(
      fps, dvs, scenario,
      workspace != nullptr ? &workspace->objective_scratch() : nullptr,
      planning);
  const auto feasible_set = objective.BuildFeasibleSet();
  const std::vector<opt::LinearConstraint> chain =
      objective.BuildChainConstraints();

  opt::Vector x = objective.PackSchedule(start_schedule);
  const double start_energy = objective.Value(x);

  // Average-scenario solves at one planning point take the converged
  // solve; mixtures (K replays sharing one schedule), sets above
  // kReplayMaxSubInstances and the converged solve's fallbacks take the ALM.
  if (converged && scenario == Scenario::kAverage &&
      (planning == nullptr || planning->mixture.empty()) &&
      fps.sub_count() <= kReplayMaxSubInstances) {
    if (std::optional<ScheduleResult> solved = SolveReplayExact(
            fps, PlanningModel(dvs), planning, start_schedule, start_energy,
            objective, workspace)) {
      return std::move(*solved);
    }
  }

  ScheduleResult result{start_schedule, start_energy, {}, false};
  // The per-call dual seed and observer go on a copy of the constant
  // configuration; the observer never changes the solve trajectory.
  opt::AlmOptions alm_options = AcsAlmOptions();
  if (dual_seed != nullptr) {
    alm_options.dual_seed = &dual_seed->multipliers;
    alm_options.dual_penalty_seed = dual_seed->final_penalty;
  }
  alm_options.observer = convergence.observer();
  result.alm = opt::MinimizeAlm(
      objective, *feasible_set, chain, x, alm_options,
      workspace != nullptr ? &workspace->solver().alm : nullptr);

  std::vector<double> end_times(fps.sub_count());
  std::vector<double> budgets(fps.sub_count());
  for (std::size_t u = 0; u < fps.sub_count(); ++u) {
    end_times[u] = x[u];
    budgets[u] = objective.BudgetOf(x, u);
  }
  std::optional<sim::StaticSchedule> repaired =
      RepairSchedule(fps, dvs, end_times, budgets);

  if (repaired.has_value()) {
    ObserveRepairShift(*repaired, end_times);
    const double repaired_energy =
        objective.Value(objective.PackSchedule(*repaired));
    if (repaired_energy <= start_energy + 1e-12 * std::fabs(start_energy)) {
      result.schedule = std::move(*repaired);
      result.predicted_energy = repaired_energy;
      return result;
    }
    ACS_LOG_WARN << std::setprecision(std::numeric_limits<double>::max_digits10)
                 << "solver result (" << repaired_energy
                 << ") worse than warm start (" << start_energy
                 << "); keeping warm start";
  } else {
    ACS_LOG_WARN << "feasibility repair failed; keeping warm start";
  }
  result.used_fallback = true;
  return result;
}

/// True when the Vmax as-soon-as-possible sweep leaves no idle time: its
/// worst-case demand at Vmax fills the whole horizon, so every feasible
/// schedule runs at Vmax throughout and has the sweep's energy.
bool FillsTheHorizon(const fps::FullyPreemptiveSchedule& fps,
                     const model::LinearDvsModel& dvs,
                     const sim::StaticSchedule& asap) {
  const double cycle_time = dvs.CycleTime(dvs.vmax());
  double busy = 0.0;
  for (std::size_t u = 0; u < fps.sub_count(); ++u) {
    busy += asap.worst_budget(u) * cycle_time;
  }
  return fps.sub_count() > 0 && busy >= fps.effective_end_bounds().back();
}

/// The exact WCS solve (DESIGN.md §2.2): the explicit-start chain program
/// solved by opt::SolveChain, its finish times taken as end-times, then the
/// usual repair and audit.  A set whose Vmax sweep fills the horizon is
/// solved by that sweep, certified with a zero gap.  Returns nullopt,
/// counting the fallback by reason, when the solve breaks down or its
/// schedule does not survive repair; the caller then solves with the ALM.
std::optional<ScheduleResult> SolveWcsExact(
    const fps::FullyPreemptiveSchedule& fps, const model::LinearDvsModel& dvs,
    EvalWorkspace* workspace) {
  obs::ScopedWallTimer solve_timer(obs::metric::kSolveWallUs);
  obs::Span span("chain_ipm", "solve");
  const auto fall_back = [&span](const char* reason, obs::MetricId metric) {
    ACS_LOG_WARN << "exact WCS solve falls back to the ALM: " << reason;
    if (span.enabled()) {
      span.Arg("fallback", reason);
    }
    obs::Count(obs::metric::kWcsFallbacks);
    obs::Count(metric);
    return std::nullopt;
  };

  const EnergyObjective objective(
      fps, dvs, Scenario::kWorst,
      workspace != nullptr ? &workspace->objective_scratch() : nullptr);
  const auto certified = [&span](sim::StaticSchedule schedule, double energy,
                                 double dual, std::size_t newton_steps) {
    const double gap = std::max(0.0, (energy - dual) / energy);
    obs::Count(obs::metric::kWcsSolves);
    obs::Observe(obs::metric::kWcsGap, gap);
    obs::Observe(obs::metric::kWcsNewtonSteps,
                 static_cast<double>(newton_steps));
    if (span.enabled()) {
      span.Arg("newton_steps", static_cast<std::int64_t>(newton_steps));
    }
    ScheduleResult result{std::move(schedule), energy, {}, false,
                          GapCertificate{energy, dual, gap}};
    opt::AlmReport& work = result.alm;
    work.feasible = true;
    work.inner_status = opt::SolveStatus::kConverged;
    work.total_inner_iterations = newton_steps;
    work.evaluations = newton_steps;
    work.final_value = energy;
    return result;
  };
  {
    sim::StaticSchedule asap = sim::BuildVmaxAsapSchedule(fps, dvs);
    if (FillsTheHorizon(fps, dvs, asap)) {
      const double energy = objective.Value(objective.PackSchedule(asap));
      return certified(std::move(asap), energy, energy, 0);
    }
  }

  const model::TaskSet& set = fps.task_set();
  opt::ChainProblem problem;
  problem.release.resize(fps.sub_count());
  problem.cap = fps.effective_end_bounds();
  problem.group.resize(fps.sub_count());
  for (std::size_t u = 0; u < fps.sub_count(); ++u) {
    problem.release[u] = fps.sub(u).release();
    problem.group[u] = fps.sub(u).parent;
  }
  problem.group_total.resize(fps.instance_count());
  for (std::size_t p = 0; p < fps.instance_count(); ++p) {
    problem.group_total[p] = set.task(fps.instance(p).info.task).wcec;
  }
  // speed = k V, so the energy ceff V^2 w of w cycles in d is
  // (ceff / k^2) w^3 / d^2.
  problem.energy_coeff = dvs.ceff() / (dvs.k() * dvs.k());
  problem.min_speed = dvs.k() * dvs.vmin();
  problem.max_speed = dvs.k() * dvs.vmax();

  opt::ChainSolution solution;
  const opt::ChainIpmReport report = opt::SolveChain(
      problem, solution,
      workspace != nullptr ? &workspace->solver().chain : nullptr);
  if (report.status == opt::ChainStatus::kBreakdown) {
    return fall_back("KKT pivot breakdown", obs::metric::kWcsFallbackBreakdown);
  }
  std::optional<sim::StaticSchedule> repaired =
      RepairSchedule(fps, dvs, solution.finish, solution.budget);
  if (!repaired.has_value()) {
    return fall_back("repair rejected the schedule",
                     obs::metric::kWcsFallbackRepair);
  }
  ObserveRepairShift(*repaired, solution.finish);
  // The certificate is restated for the schedule actually returned: its
  // replayed energy is that of an exactly feasible point of the reduced
  // problem, so it bounds the common optimum from above just as the dual
  // bound does from below.  A gap above the solver's own target is kept
  // with its schedule, which is feasible and certified, rather than traded
  // for an uncertified ALM solve; solve.wcs_gap's max shows any such gap.
  const double energy = objective.Value(objective.PackSchedule(*repaired));
  return certified(std::move(*repaired), energy, report.dual,
                   report.newton_steps);
}

}  // namespace

ScheduleResult SolveSchedule(
    const fps::FullyPreemptiveSchedule& fps, const model::DvsModel& dvs,
    Scenario scenario, const std::optional<sim::StaticSchedule>& warm_start,
    EvalWorkspace* workspace) {
  return SolveWith(fps, dvs, scenario, nullptr, warm_start, workspace,
                   /*converged=*/false);
}

ScheduleResult SolvePlanned(
    const fps::FullyPreemptiveSchedule& fps, const model::DvsModel& dvs,
    const PlanningPoint& planning,
    const std::optional<sim::StaticSchedule>& warm_start,
    EvalWorkspace* workspace, const opt::AlmReport* dual_seed) {
  return SolveWith(fps, dvs, Scenario::kAverage, &planning, warm_start,
                   workspace, /*converged=*/true, dual_seed);
}

ScheduleResult SolveWcs(const fps::FullyPreemptiveSchedule& fps,
                        const model::DvsModel& dvs, EvalWorkspace* workspace) {
  if (std::optional<ScheduleResult> exact =
          SolveWcsExact(fps, PlanningModel(dvs), workspace)) {
    return std::move(*exact);
  }
  return SolveSchedule(fps, dvs, Scenario::kWorst, std::nullopt, workspace);
}

ScheduleResult SolveAcs(const fps::FullyPreemptiveSchedule& fps,
                        const model::DvsModel& dvs, EvalWorkspace* workspace) {
  return SolveAcsFrom(fps, dvs, SolveWcs(fps, dvs, workspace).schedule,
                      workspace);
}

ScheduleResult SolveAcsFrom(const fps::FullyPreemptiveSchedule& fps,
                            const model::DvsModel& dvs,
                            const sim::StaticSchedule& warm_start,
                            EvalWorkspace* workspace) {
  return SolveWith(fps, dvs, Scenario::kAverage, nullptr, warm_start,
                   workspace, /*converged=*/true);
}

}  // namespace dvs::core
